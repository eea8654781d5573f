package stats

// TimeHist accumulates a piecewise-constant signal (queue depth, busy
// lane count) weighted by how long each value was held, so its mean
// reflects *time at a level* rather than *number of transitions*. The
// event-driven serving simulator feeds it one (value, duration) pair per
// inter-event interval. It keeps two running values, so Add never
// allocates.
type TimeHist struct {
	total float64
	sum   float64 // integral of value*dt
}

// Add records that the signal held value for duration seconds. Zero or
// negative durations are ignored (zero-width intervals carry no weight).
func (h *TimeHist) Add(value, duration float64) {
	if duration <= 0 {
		return
	}
	h.total += duration
	h.sum += value * duration
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
