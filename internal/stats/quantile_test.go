package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortPercentile is the frozen sort-plus-rank reference for one
// percentile of a sorted, non-empty s: the interpolation Percentile
// used when it sorted a copy of its input.
func sortPercentile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// sortQuantiles is the frozen reference for QuantilesInPlace: it sorts
// a copy of xs and sums xs in its own order.
func sortQuantiles(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return Quantiles{
		Mean: sum / float64(len(xs)),
		P50:  sortPercentile(s, 50),
		P95:  sortPercentile(s, 95),
		P99:  sortPercentile(s, 99),
	}
}

// sameFloat is bit equality, except that any two NaNs and any two zeros
// match: the sort orders values that compare equal (-0 and +0) or
// unordered (NaNs) arbitrarily, so the reference itself does not pin
// which of them a rank holds.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) || (a == 0 && b == 0)
}

func sameQuantiles(a, b Quantiles) bool {
	return sameFloat(a.Mean, b.Mean) && sameFloat(a.P50, b.P50) && sameFloat(a.P95, b.P95) && sameFloat(a.P99, b.P99)
}

// sortedBits returns xs's bit patterns in order, a multiset key that
// tells NaN payloads and zero signs apart.
func sortedBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	slices.Sort(out)
	return out
}

// checkQuantiles pins QuantilesInPlace and Percentile on xs to the sort
// reference: on a first call, on a second call over the reordered
// buffer, and after more values are appended to it. xs itself is not
// touched.
func checkQuantiles(t *testing.T, xs, more []float64, p float64) {
	t.Helper()
	want := sortQuantiles(xs)
	buf := slices.Clone(xs)
	sum := Sum(xs)
	if got := QuantilesInPlace(buf, sum); !sameQuantiles(got, want) {
		t.Fatalf("len %d: QuantilesInPlace = %+v, sort reference %+v", len(xs), got, want)
	}
	if !slices.Equal(sortedBits(buf), sortedBits(xs)) {
		t.Fatalf("len %d: QuantilesInPlace changed the sample's multiset", len(xs))
	}
	if got := QuantilesInPlace(buf, sum); !sameQuantiles(got, want) {
		t.Fatalf("len %d: second QuantilesInPlace = %+v, sort reference %+v", len(xs), got, want)
	}
	all := append(slices.Clone(xs), more...)
	buf = append(buf, more...)
	for _, x := range more {
		sum += x
	}
	if got, want := QuantilesInPlace(buf, sum), sortQuantiles(all); !sameQuantiles(got, want) {
		t.Fatalf("len %d+%d: QuantilesInPlace after appending = %+v, sort reference %+v", len(xs), len(more), got, want)
	}
	if len(xs) == 0 {
		return
	}
	orig := slices.Clone(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if got, want := Percentile(xs, p), sortPercentile(s, p); !sameFloat(got, want) {
		t.Fatalf("len %d: Percentile(%g) = %v, sort reference %v", len(xs), p, got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("len %d: Percentile modified its input at %d", len(xs), i)
		}
	}
}

func TestQuantilesInPlace(t *testing.T) {
	q := QuantilesInPlace(nil, 0)
	if q != (Quantiles{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q = QuantilesInPlace(xs, Sum(xs))
	if q.Mean != 50.5 {
		t.Errorf("mean = %g", q.Mean)
	}
	if q.P50 >= q.P95 || q.P95 >= q.P99 {
		t.Errorf("quantiles unordered: %+v", q)
	}
}

// TestQuantilesInPlaceMatchesReference pins the selection path to the
// sort reference on random, duplicate-heavy, all-equal, presorted,
// reversed, infinite and NaN inputs and at the edge lengths.
func TestQuantilesInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs [][]float64
	for _, n := range []int{0, 1, 2, 3, 13, 17, 100, 1e5} {
		random := make([]float64, n)
		dups := make([]float64, n)
		equal := make([]float64, n)
		for i := range random {
			random[i] = rng.NormFloat64() * 1e3
			dups[i] = float64(rng.Intn(4)) / 3
			equal[i] = 0.25
		}
		sorted := slices.Clone(random)
		slices.Sort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		inputs = append(inputs, random, dups, equal, sorted, reversed)
	}
	inputs = append(inputs,
		[]float64{math.Inf(1), 1, math.Inf(-1), 2, 2, math.Inf(1)},
		[]float64{math.Inf(-1)},
		[]float64{math.Inf(1), math.Inf(1)},
		[]float64{math.NaN(), 3, math.NaN(), 1, math.Inf(1), 2, 0, math.NaN()},
		[]float64{math.NaN(), math.NaN()},
	)
	more := []float64{0.5, -1, 3, math.Inf(1), 0.5}
	for _, xs := range inputs {
		for _, p := range []float64{0, 1, 50, 95, 99, 99.9, 100} {
			checkQuantiles(t, xs, more, p)
		}
	}
}

// TestIntroselectDepthFallback pins the depth-limited fallback: with
// every budget from none at all up, introselect still fixes rank k,
// partitions around it, and returns a range around k whose slots all
// hold their sorted values.
func TestIntroselectDepthFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 12, 13, 200, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n/3 + 1))
		}
		s := slices.Clone(xs)
		slices.Sort(s)
		for depth := 0; depth <= 6; depth++ {
			for _, k := range []int{0, n / 2, n - 1} {
				buf := slices.Clone(xs)
				a, b := introselect(buf, k, depth)
				if a > k || k >= b || !slices.Equal(buf[a:b], s[a:b]) {
					t.Fatalf("n %d depth %d: rank %d: returned range [%d, %d) not fixed", n, depth, k, a, b)
				}
				if buf[k] != s[k] {
					t.Fatalf("n %d depth %d: rank %d = %g, want %g", n, depth, k, buf[k], s[k])
				}
				if slices.Max(buf[:k+1]) != buf[k] || slices.Min(buf[k:]) != buf[k] {
					t.Fatalf("n %d depth %d: rank %d not partitioned", n, depth, k)
				}
			}
		}
	}
}

// TestQuantilesInPlaceAllocs gates the selection path at zero
// allocations on a buffer the caller owns.
func TestQuantilesInPlaceAllocs(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000)
	}
	sum := Sum(xs)
	if avg := testing.AllocsPerRun(100, func() { QuantilesInPlace(xs, sum) }); avg != 0 {
		t.Errorf("QuantilesInPlace allocates %v times per call, want 0", avg)
	}
}

// fuzzPalette holds the few values a duplicate-heavy fuzz sample draws
// from: signed zeros, a subnormal, infinities, a NaN, and values whose
// sum depends on the order they are added in.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 5e-324, 0.1, 0.2, 0.7, 1, 1, 2.5, -3, 7, 7,
	1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// fuzzSample decodes a sample from fuzz bytes in one of six shapes:
// palette picks, raw float64 bit patterns, one value repeated, sorted
// and reversed palette picks, and palette runs of up to 16 copies.
func fuzzSample(data []byte, shape uint8) []float64 {
	pick := func(b byte) float64 { return fuzzPalette[int(b)%len(fuzzPalette)] }
	var xs []float64
	switch shape % 6 {
	case 1:
		for ; len(data) >= 8; data = data[8:] {
			var u uint64
			for _, b := range data[:8] {
				u = u<<8 | uint64(b)
			}
			xs = append(xs, math.Float64frombits(u))
		}
	case 2:
		for range data {
			xs = append(xs, pick(data[0]))
		}
	case 5:
		for _, b := range data {
			for range b/16 + 1 {
				xs = append(xs, pick(b))
			}
		}
	default:
		for _, b := range data {
			xs = append(xs, pick(b))
		}
	}
	switch shape % 6 {
	case 3:
		sort.Float64s(xs)
	case 4:
		sort.Float64s(xs)
		slices.Reverse(xs)
	}
	return xs
}

// FuzzQuantiles checks QuantilesInPlace and Percentile against the
// frozen sort reference on fuzzed samples of every length, including
// duplicate-heavy, infinite, NaN, all-equal and presorted ones. The
// first len/3 values play the sample and the rest the values appended
// before a second call.
func FuzzQuantiles(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(50))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}, uint8(0), uint8(95))
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18}, uint8(1), uint8(99))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(2), uint8(250))
	f.Add([]byte{16, 3, 200, 9, 15, 14, 13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint8(1))
	f.Add([]byte{16, 3, 200, 9, 15, 14, 13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(4), uint8(0))
	f.Add([]byte{0xff, 0x3e, 0x47, 0x12, 0xa0, 0x35, 0xf1, 0x66, 0x80, 0x10}, uint8(5), uint8(125))
	f.Fuzz(func(t *testing.T, data []byte, shape, pct uint8) {
		xs := fuzzSample(data, shape)
		n := len(xs) / 3
		checkQuantiles(t, xs[:n:n], xs[n:], float64(pct)*100/250)
	})
}
