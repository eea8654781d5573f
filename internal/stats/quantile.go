package stats

import (
	"math/bits"
	"slices"
)

// Quantiles bundles the mean and the common percentiles of a sample;
// the serving metrics report one per latency kind.
type Quantiles struct {
	Mean, P50, P95, P99 float64
}

// QuantilesInPlace summarizes xs (zeros for empty input) without
// sorting or copying it. sum must be xs's values added from 0 in the
// order they were appended, as Sum gives before any reordering, so the
// mean sum/len(xs) equals Mean bit for bit. Each percentile equals
// Percentile(xs, p) bit for bit: it reads the same two order
// statistics, found by selection instead of a sort.
//
// xs is reordered but keeps its multiset, so a later call on the same
// buffer, with more values appended and sum extended by them, is still
// exact.
func QuantilesInPlace(xs []float64, sum float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := newSelector(xs)
	return Quantiles{
		Mean: sum / float64(len(xs)),
		P50:  s.percentile(50),
		P95:  s.percentile(95),
		P99:  s.percentile(99),
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. xs is not modified: the ranks
// are selected on a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := newSelector(slices.Clone(xs))
	return s.percentile(p)
}

// selector reads order statistics of xs, in the order sort.Float64s
// and cmp.Less give (NaNs first, then ascending by <), while only
// partially ordering xs. Invariants: xs[:nans] are the NaNs; every
// value in xs[:fixed] is <= every value in xs[fixed:]; and each of
// xs[from:fixed] holds the value of its own rank.
type selector struct {
	xs                []float64
	nans, from, fixed int
}

// newSelector moves xs's NaNs to the front, so the rest can be
// compared with plain <.
func newSelector(xs []float64) selector {
	n := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[n] = xs[n], x
			n++
		}
	}
	return selector{xs: xs, nans: n, from: n, fixed: n}
}

// at returns the value of rank r. Ranks must be asked for in
// non-decreasing order, except that any rank in the run of consecutive
// ranks fixed last may be read again.
func (s *selector) at(r int) float64 {
	xs := s.xs
	switch {
	case r < s.nans || (r >= s.from && r < s.fixed):
	case r == s.fixed:
		// The next rank is the minimum of the unfixed suffix.
		m := r
		for i := r + 1; i < len(xs); i++ {
			if xs[i] < xs[m] {
				m = i
			}
		}
		xs[r], xs[m] = xs[m], xs[r]
		s.fixed++
	case r > s.fixed:
		a, b := introselect(xs[s.fixed:], r-s.fixed, 2*bits.Len(uint(len(xs)-s.fixed)))
		s.from, s.fixed = s.fixed+a, s.fixed+b
	default:
		panic("stats: selector rank asked for out of order")
	}
	return xs[r]
}

// percentile is Percentile over the selector's sample, which must be
// non-empty. It reads ranks lo and lo+1 of p's interpolation.
func (s *selector) percentile(p float64) float64 {
	n := len(s.xs)
	if p <= 0 {
		return s.at(0)
	}
	if p >= 100 {
		return s.at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.at(n - 1)
	}
	a := s.at(lo)
	b := s.at(lo + 1)
	return a*(1-frac) + b*frac
}

// introselect reorders xs, which holds no NaN, so that xs[k] is its
// k-th smallest value, and returns a range [a, b) around k whose every
// slot holds the value of its own rank, with xs[:a] <= xs[a:b] <=
// xs[b:]. Each pass is a three-way partition around a median-of-3
// pivot p: it splits off the values above p, and only when k stays
// below them does it split the rest at p, so a run of values equal to
// xs[k] comes back fixed whole as soon as k lands in it. The quantile
// ranks sit high in their ranges, where the first split alone usually
// decides. After depth passes the remaining subrange is sorted
// instead, which bounds the worst case at O(n log n).
func introselect(xs []float64, k, depth int) (a, b int) {
	lo, hi := 0, len(xs)
	for ; hi-lo > 12 && depth > 0; depth-- {
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// xs[lo:lt] < p, xs[lt:le] == p, xs[le:hi] > p.
		le := lo + partition(xs[lo:hi], func(v float64) bool { return !(p < v) })
		if k >= le {
			lo = le
			continue
		}
		lt := lo + partition(xs[lo:le], func(v float64) bool { return v < p })
		if k >= lt {
			return lt, le
		}
		hi = lt
	}
	slices.Sort(xs[lo:hi])
	return lo, hi
}

// partition moves the values of xs that satisfy in to its front and
// returns their count. Every step swaps unconditionally and only the
// count depends on in, so a random sample costs no branch mispredicts.
func partition(xs []float64, in func(float64) bool) int {
	n := 0
	for i, v := range xs {
		xs[i] = xs[n]
		xs[n] = v
		d := 0
		if in(v) {
			d = 1
		}
		n += d
	}
	return n
}

// median3 returns the median of three non-NaN values.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		return max(a, c)
	}
	return b
}
