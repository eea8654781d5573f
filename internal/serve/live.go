package serve

import "sync/atomic"

// LiveStats is a set of process-wide, lock-free serving counters in the
// style of dram.Totals: every running simulation publishes its own
// counts into them every 1024 events and when it finishes, and
// observers (the facild /metrics endpoint, the facilsim -v footer) read
// a consistent-enough snapshot at any time without pausing the event
// loop. The counters are cumulative
// over the process lifetime — like a network stack's interface counters
// — and never feed back into simulated timing, so enabling an observer
// cannot perturb a run's results.
type LiveStats struct {
	runsStarted  atomic.Int64
	runsFinished atomic.Int64
	events       atomic.Int64
	virtualNanos atomic.Int64

	arrived   atomic.Int64
	admitted  atomic.Int64
	rejected  atomic.Int64
	retries   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	retracted atomic.Int64

	degraded   atomic.Int64
	failedOver atomic.Int64
}

// Live aggregates every serving simulation in the process, however many
// runs or sweep points are in flight.
var Live LiveStats

// LiveSnapshot is one point-in-time copy of the live counters, shaped
// for JSON export (the facild /metrics payload). Each field is read
// atomically; the snapshot as a whole is taken without any lock, so
// fields may be skewed by events landing between loads — acceptable for
// observability, never used for results.
type LiveSnapshot struct {
	// RunsStarted and RunsFinished count serve simulations; their
	// difference is the number currently in flight.
	RunsStarted int64 `json:"runs_started"`
	// RunsFinished counts simulations that reached Finish.
	RunsFinished int64 `json:"runs_finished"`
	// Events is the total simulator events processed.
	Events int64 `json:"events"`
	// VirtualSeconds is the total virtual time advanced, summed over
	// every run (a throughput odometer, not a clock).
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Arrived through FailedOver mirror the Metrics query accounting,
	// summed over every run.
	Arrived int64 `json:"arrived"`
	// Admitted counts queries admitted into the system.
	Admitted int64 `json:"admitted"`
	// Rejected counts queries dropped at admission (retry budgets
	// exhausted).
	Rejected int64 `json:"rejected"`
	// Retries counts client-side re-submissions after a rejection.
	Retries int64 `json:"retries"`
	// Completed counts queries that emitted their last token.
	Completed int64 `json:"completed"`
	// Failed counts queries terminally lost to faults.
	Failed int64 `json:"failed"`
	// Retracted counts queries pulled back out of a sim for
	// cross-device migration (each is re-admitted elsewhere).
	Retracted int64 `json:"retracted"`
	// Degraded counts queries that ran at least one decode quantum on
	// the SoC fallback path.
	Degraded int64 `json:"degraded"`
	// FailedOver counts decode migrations to another replica.
	FailedOver int64 `json:"failed_over"`
}

// Snapshot reads every counter atomically and returns the copy.
func (l *LiveStats) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		RunsStarted:    l.runsStarted.Load(),
		RunsFinished:   l.runsFinished.Load(),
		Events:         l.events.Load(),
		VirtualSeconds: float64(l.virtualNanos.Load()) / 1e9,
		Arrived:        l.arrived.Load(),
		Admitted:       l.admitted.Load(),
		Rejected:       l.rejected.Load(),
		Retries:        l.retries.Load(),
		Completed:      l.completed.Load(),
		Failed:         l.failed.Load(),
		Retracted:      l.retracted.Load(),
		Degraded:       l.degraded.Load(),
		FailedOver:     l.failedOver.Load(),
	}
}
