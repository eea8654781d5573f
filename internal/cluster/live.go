package cluster

import "sync/atomic"

// LiveStats is the cluster layer's set of process-wide, lock-free
// counters, in the style of serve.Live: every cluster run increments
// them with one atomic add per router decision, and observers (the
// facild /metrics endpoint) snapshot them at any time without pausing
// the run. Counters are cumulative over the process lifetime and never
// feed back into routing or timing, so observation cannot perturb
// results. Device-level activity (events, admissions, completions) is
// already counted by serve.Live — these counters cover only what the
// router itself adds: runs, routing decisions, sheds, barriers and
// health-breaker opens.
type LiveStats struct {
	runsStarted  atomic.Int64
	runsFinished atomic.Int64

	routed          atomic.Int64
	shed            atomic.Int64
	barriers        atomic.Int64
	breakerOpens    atomic.Int64
	stolen          atomic.Int64
	stolenPrefilled atomic.Int64
}

// Live aggregates every cluster run in the process.
var Live LiveStats

// LiveSnapshot is one point-in-time copy of the cluster counters,
// shaped for JSON export inside the facild /metrics payload. Fields are
// read atomically but not as one transaction — fine for observability,
// never used for results.
type LiveSnapshot struct {
	// RunsStarted and RunsFinished count cluster runs; their difference
	// is the number currently in flight.
	RunsStarted int64 `json:"runs_started"`
	// RunsFinished counts cluster runs that completed their drain.
	RunsFinished int64 `json:"runs_finished"`
	// Routed counts arrivals dispatched to a device.
	Routed int64 `json:"routed"`
	// Shed counts arrivals dropped at the router (no eligible device,
	// or a tiered admission refusal).
	Shed int64 `json:"shed"`
	// Barriers counts telemetry barriers crossed (each one concurrent
	// device advancement plus a serial signal refresh).
	Barriers int64 `json:"barriers"`
	// BreakerOpens counts router-side device health-breaker opens.
	BreakerOpens int64 `json:"breaker_opens"`
	// Stolen counts queries migrated between devices at barrier
	// re-route phases; StolenPrefilled is the subset that moved with a
	// finished prefill (and paid the KV handoff penalty).
	Stolen int64 `json:"stolen"`
	// StolenPrefilled counts migrations of prefilled queries.
	StolenPrefilled int64 `json:"stolen_prefilled"`
}

// Snapshot reads every counter atomically and returns the copy.
func (l *LiveStats) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		RunsStarted:     l.runsStarted.Load(),
		RunsFinished:    l.runsFinished.Load(),
		Routed:          l.routed.Load(),
		Shed:            l.shed.Load(),
		Barriers:        l.barriers.Load(),
		BreakerOpens:    l.breakerOpens.Load(),
		Stolen:          l.stolen.Load(),
		StolenPrefilled: l.stolenPrefilled.Load(),
	}
}
