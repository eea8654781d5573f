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

func TestQuantilesOf(t *testing.T) {
	q := QuantilesOf(nil)
	if q != (Quantiles{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q = QuantilesOf(xs)
	if q.Mean != 50.5 {
		t.Errorf("mean = %g", q.Mean)
	}
	if q.P50 >= q.P95 || q.P95 >= q.P99 {
		t.Errorf("quantiles unordered: %+v", q)
	}
}
