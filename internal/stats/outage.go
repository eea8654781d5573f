package stats

// Outages accumulates down-interval observations of a repairable
// resource (e.g. one replica's PIM decode lane): how often it went
// down, for how long in total, and the derived mean-time-to-repair.
// The zero value is ready to use.
type Outages struct {
	// Count is the number of recorded outages.
	Count int
	// TotalDown is the summed outage duration in seconds.
	TotalDown float64
}

// Record adds one outage of the given duration (non-positive durations
// are ignored — an outage that never started has nothing to repair).
func (o *Outages) Record(dur float64) {
	if dur <= 0 {
		return
	}
	o.Count++
	o.TotalDown += dur
}

// MTTR returns the mean outage duration, or 0 with no observations.
func (o Outages) MTTR() float64 {
	if o.Count == 0 {
		return 0
	}
	return o.TotalDown / float64(o.Count)
}
