package stats

import (
	"math"
	"testing"
)

func TestTimeHistMeanMaxTotal(t *testing.T) {
	var h TimeHist
	if h.Mean() != 0 || h.Max() != 0 || h.TotalTime() != 0 {
		t.Errorf("empty hist not zero: %+v", h)
	}
	h.Add(2, 1)  // depth 2 for 1s
	h.Add(4, 3)  // depth 4 for 3s
	h.Add(0, -1) // ignored
	h.Add(9, 0)  // ignored
	if h.TotalTime() != 4 {
		t.Errorf("total = %g", h.TotalTime())
	}
	if want := (2*1 + 4*3) / 4.0; math.Abs(h.Mean()-want) > 1e-12 {
		t.Errorf("mean = %g, want %g", h.Mean(), want)
	}
	if h.Max() != 4 {
		t.Errorf("max = %g", h.Max())
	}
}
