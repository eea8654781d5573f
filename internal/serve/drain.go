package serve

import (
	"math"
	"sync/atomic"
)

// drainGen versions the process-wide drain-outage request and drainDur
// carries the requested duration as float64 bits. Each sim captures the
// generation at construction and re-checks it with one atomic load per
// event batch, so a trigger reaches exactly the sims running when it
// fires — never runs created afterwards — without any registry of live
// sims or locking on the hot path.
var (
	drainGen atomic.Int64
	drainDur atomic.Uint64
)

// TriggerDrainOutage asks every currently-running two-lane simulation
// in the process to take an immediate PIM-lane outage of the given
// duration (virtual seconds) on all of its replicas. The facild daemon
// calls it at the start of a graceful drain, so the in-flight run
// finishes through its degradation policies — SoC fallback, failover,
// breakers — instead of merely completing on healthy lanes; that is
// the drain path a production stack actually takes when a host is
// being evicted. Serial-mode sims ignore the trigger (the fault model
// targets the two-lane schedulers), sims created after the call are
// unaffected, and non-positive or non-finite durations are no-ops.
//
// Because the trigger lands relative to however far each sim happens to
// have advanced, it is an operational tool for exercising the drain
// path, not a reproducible experiment knob — seeded fault scenarios
// (SimConfig.Faults) remain the deterministic way to study outages.
func TriggerDrainOutage(seconds float64) {
	if !(seconds > 0) || math.IsInf(seconds, 0) {
		return
	}
	drainDur.Store(math.Float64bits(seconds))
	drainGen.Add(1)
}

// applyDrainOutage schedules the triggered outage on every replica at
// the sim's current clock, lazily arming a minimal fault layer when the
// run has none (no RNG streams, no thermal window — just the outage and
// the policy machinery the config already selected).
func (sm *sim) applyDrainOutage(d float64) {
	if sm.cfg.Mode == Serial || !(d > 0) || math.IsInf(d, 0) {
		return
	}
	if sm.flt == nil {
		sm.flt = &faultState{thermal: 1}
	}
	for ri := range sm.reps {
		sm.push(event{at: sm.now, kind: evLaneDown, rep: int32(ri), until: sm.now + d})
	}
}
