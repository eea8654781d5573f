package stats

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

// QuantilesOf summarizes xs (zeros for empty input).
func QuantilesOf(xs []float64) Quantiles {
	return Quantiles{
		Mean: Mean(xs),
		P50:  Percentile(xs, 50),
		P95:  Percentile(xs, 95),
		P99:  Percentile(xs, 99),
	}
}
