package stats

import (
	"cmp"
	"sort"
)

// TimeHist accumulates a piecewise-constant signal (queue depth, busy
// lane count) weighted by how long each value was held, so its mean
// reflects *time at a level* rather than *number of transitions*. The
// event-driven serving simulator feeds it one (value, duration) pair per
// inter-event interval. It keeps three running values, so Add never
// allocates.
type TimeHist struct {
	total float64
	sum   float64 // integral of value*dt
	max   float64
}

// Add records that the signal held value for duration seconds. Zero or
// negative durations are ignored (zero-width intervals carry no weight).
func (h *TimeHist) Add(value, duration float64) {
	if duration <= 0 {
		return
	}
	h.total += duration
	h.sum += value * duration
	if value > h.max {
		h.max = value
	}
}

// TotalTime returns the summed duration.
func (h *TimeHist) TotalTime() float64 { return h.total }

// Mean returns the time-weighted mean (0 when nothing was recorded).
func (h *TimeHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / h.total
}

// Max returns the largest recorded value (0 when empty).
func (h *TimeHist) Max() float64 { return h.max }

// Quantiles bundles the common percentiles of a plain sample slice; a
// small convenience for the serving metrics.
type Quantiles struct {
	Mean, P50, P95, P99 float64
}

// QuantilesOf summarizes xs (zeros for empty input). It sorts one copy
// of xs and reads the three ranks from it, so each percentile equals
// Percentile(xs, p) bit for bit; the mean sums xs in its own order, as
// Mean does. xs is not modified.
func QuantilesOf(xs []float64) Quantiles {
	return QuantilesOfSorted(xs, SortedCopy(xs))
}

// QuantilesOfSorted is QuantilesOf given s, the values of xs in sorted
// order (from SortedCopy or MergeSorted).
func QuantilesOfSorted(xs, s []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	return Quantiles{
		Mean: Mean(xs),
		P50:  sortedPercentile(s, 50),
		P95:  sortedPercentile(s, 95),
		P99:  sortedPercentile(s, 99),
	}
}

// SortedCopy returns a sorted copy of xs.
func SortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// MergeSorted merges sorted slices into one new sorted slice holding
// the values SortedCopy would give for their concatenation, in linear
// time per part.
func MergeSorted(parts ...[]float64) []float64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]float64, 0, n)
	next := make([]int, len(parts))
	for len(out) < n {
		best := -1
		for k, p := range parts {
			if next[k] < len(p) && (best < 0 || cmp.Less(p[next[k]], parts[best][next[best]])) {
				best = k
			}
		}
		out = append(out, parts[best][next[best]])
		next[best]++
	}
	return out
}
