package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanGeomean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Geomean = %g", got)
	}
	if Mean(nil) != 0 || Geomean(nil) != 0 {
		t.Error("empty inputs must yield 0")
	}
	if Geomean([]float64{1, -1}) != 0 {
		t.Error("non-positive input must yield 0")
	}
}

func TestGeomeanLeqMeanProperty(t *testing.T) {
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		xs := make([]float64, len(seeds))
		for i, s := range seeds {
			xs[i] = float64(s)/16 + 0.1
		}
		return Geomean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("P100 = %g", got)
	}
	if got := Percentile(xs, 50); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("P50 = %g", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Percentile sorted its input in place")
	}
}

// TestMinMax checks that the 0th and 100th percentiles are the extrema.
func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if lo, hi := Percentile(xs, 0), Percentile(xs, 100); lo != -1 || hi != 7 {
		t.Errorf("p0/p100 = %g/%g, want -1/7", lo, hi)
	}
	if Percentile(nil, 0) != 0 || Percentile(nil, 100) != 0 {
		t.Error("empty extrema must be 0")
	}
}
