// Package stats provides the small statistical helpers the experiment
// harness uses: means, geometric means, percentiles, time-weighted
// signal means and outage tallies.
package stats

import "math"

// Sum adds xs from 0 in slice order.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean (0 for empty input): Sum over the
// length.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Geomean returns the geometric mean of positive values. Non-positive
// values make the result 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
