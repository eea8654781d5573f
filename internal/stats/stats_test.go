package stats

import (
	"math"
	"math/rand"
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

// TestQuantilesOfMatchesPercentile pins QuantilesOf's one-sort path,
// and QuantilesOfSorted over merged sorted parts, to the per-call
// Percentile and Mean bit for bit, on random, duplicate-heavy and
// infinite inputs and at the edge lengths.
func TestQuantilesOfMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs [][]float64
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1e5} {
		random := make([]float64, n)
		dups := make([]float64, n)
		for i := range random {
			random[i] = rng.NormFloat64() * 1e3
			dups[i] = float64(rng.Intn(4)) / 3
		}
		inputs = append(inputs, random, dups)
	}
	inputs = append(inputs,
		[]float64{math.Inf(1), 1, math.Inf(-1), 2, 2, math.Inf(1)},
		[]float64{math.Inf(-1)},
		[]float64{math.Inf(1), math.Inf(1)},
	)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameQ := func(a, b Quantiles) bool {
		return same(a.Mean, b.Mean) && same(a.P50, b.P50) && same(a.P95, b.P95) && same(a.P99, b.P99)
	}
	for _, xs := range inputs {
		orig := append([]float64(nil), xs...)
		got := QuantilesOf(xs)
		want := Quantiles{Mean: Mean(xs), P50: Percentile(xs, 50), P95: Percentile(xs, 95), P99: Percentile(xs, 99)}
		if !sameQ(got, want) {
			t.Errorf("len %d: QuantilesOf = %+v, want %+v", len(xs), got, want)
		}
		for i := range xs {
			if !same(xs[i], orig[i]) {
				t.Fatalf("len %d: QuantilesOf modified its input at %d", len(xs), i)
			}
		}
		// Merging sorted copies of a three-way split gives the same
		// sorted sample, hence the same quantiles.
		var parts [3][]float64
		for _, x := range xs {
			k := rng.Intn(3)
			parts[k] = append(parts[k], x)
		}
		merged := MergeSorted(SortedCopy(parts[0]), SortedCopy(parts[1]), SortedCopy(parts[2]))
		sorted := SortedCopy(xs)
		if len(merged) != len(sorted) {
			t.Fatalf("len %d: MergeSorted returned %d values", len(xs), len(merged))
		}
		for i := range sorted {
			if !same(merged[i], sorted[i]) {
				t.Fatalf("len %d: MergeSorted[%d] = %v, SortedCopy has %v", len(xs), i, merged[i], sorted[i])
			}
		}
		if got := QuantilesOfSorted(xs, merged); !sameQ(got, want) {
			t.Errorf("len %d: QuantilesOfSorted(merged) = %+v, want %+v", len(xs), got, want)
		}
	}
}

// TestQuantilesOfAllocs gates QuantilesOf at exactly one allocation:
// the sorted copy.
func TestQuantilesOfAllocs(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000)
	}
	if avg := testing.AllocsPerRun(100, func() { QuantilesOf(xs) }); avg != 1 {
		t.Errorf("QuantilesOf allocates %v times per call, want 1", avg)
	}
}
