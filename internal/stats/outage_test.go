package stats

import "testing"

func TestOutages(t *testing.T) {
	var o Outages
	if o.MTTR() != 0 {
		t.Fatalf("zero tracker: MTTR=%g", o.MTTR())
	}
	o.Record(2)
	o.Record(4)
	o.Record(0)  // ignored
	o.Record(-1) // ignored
	if o.Count != 2 || o.TotalDown != 6 {
		t.Fatalf("tracker = %+v, want Count 2 TotalDown 6", o)
	}
	if got := o.MTTR(); got != 3 {
		t.Fatalf("MTTR = %g, want 3", got)
	}
}
