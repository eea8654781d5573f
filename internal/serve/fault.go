package serve

import (
	"math"
	"math/rand"

	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/fault"
	"facil/internal/stats"
)

// Fault-handling constants.
const (
	// DefaultFailoverPenalty is the decode-migration cost in seconds
	// (KV-cache transfer to the adopting replica) under PolicyFailover.
	DefaultFailoverPenalty = 0.05
	// DefaultBreakerCooldown is the open-state dwell in seconds before
	// a half-open probe.
	DefaultBreakerCooldown = 1.0
	// DefaultRetryBase is the first client-retry backoff in seconds.
	DefaultRetryBase = 0.05
	// DefaultRetryCap bounds the exponential backoff in seconds.
	DefaultRetryCap = 2.0
	// MapIDRepairSeconds is the page-table re-walk that repairs a
	// query's corrupted PTE MapID at its decode handoff. Every policy
	// other than PolicyNone detects the bad ID and pays this penalty
	// instead of decoding under the wrong mapping.
	MapIDRepairSeconds = 0.002
)

// faultState is the per-run fault-injection machinery; sm.flt is nil
// when the scenario is empty, making the layer provably zero-impact:
// no RNG draws, no extra events, no arithmetic on the hot path.
type faultState struct {
	sc    fault.Scenario
	lanes []*fault.LaneFaults
	// thermal is the measured DRAM slowdown factor inside a
	// thermal-throttle window (dram.ThrottleFactor; 1 outside).
	thermal float64
	// crng draws the per-admission MapID-corruption Bernoulli.
	crng *rand.Rand
	// outages tracks completed (repaired) lane outages; finish adds the
	// lanes still dead at the end of the run.
	outages stats.Outages
}

// initFaults arms the fault layer for a non-empty scenario: measures
// the thermal throttle factor on the platform's DRAM spec, seeds the
// corruption RNG, and schedules the first outage window of every
// replica's lane-fault stream.
func (sm *sim) initFaults(s *engine.System) error {
	fs := &faultState{sc: sm.cfg.Faults, thermal: 1}
	if len(fs.sc.Thermal) > 0 {
		f, err := dram.ThrottleFactor(s.Platform.Spec, fs.sc.EffectiveRefreshMult())
		if err != nil {
			return err
		}
		fs.thermal = f
	}
	if fs.sc.MapIDCorruptRate > 0 {
		fs.crng = rand.New(rand.NewSource(fs.sc.Seed ^ 0x6A09E667))
	}
	fs.lanes = make([]*fault.LaneFaults, sm.cfg.Replicas)
	for ri := range fs.lanes {
		fs.lanes[ri] = fs.sc.Lanes(ri)
		if w, ok := fs.lanes[ri].Next(); ok {
			sm.push(event{at: w.Start, kind: evLaneDown, rep: int32(ri), until: w.End})
		}
	}
	sm.flt = fs
	return nil
}

// factorAt returns the lane slowdown at time t: the measured thermal
// throttle factor inside a thermal window, exactly 1 otherwise (and
// always 1 with the fault layer off, keeping durations bit-identical).
func (sm *sim) factorAt(t float64) float64 {
	if sm.flt == nil || sm.flt.thermal == 1 || !sm.flt.sc.ThermalAt(t) {
		return 1
	}
	return sm.flt.thermal
}

// maybeCorrupt draws the admission-time MapID-corruption Bernoulli.
func (sm *sim) maybeCorrupt(q *query) {
	if sm.flt == nil || sm.flt.crng == nil {
		return
	}
	if sm.flt.crng.Float64() < sm.flt.sc.MapIDCorruptRate {
		q.corrupt = true
		sm.m.CorruptMapIDs++
	}
}

// onCorruptHandoff resolves a query that maybeCorrupt marked at
// admission, at its decode handoff: the first point where the PIM lane
// addresses the weights through the PTE-carried MapID. No bit is
// flipped and no address is translated; the model is the outcome.
// Under PolicyNone the wrong ID goes undetected, the decode runs under
// the wrong mapping, and the query fails terminally. Under the other
// policies the bad ID is detected and a page-table re-walk repairs it,
// adding MapIDRepairSeconds to the query. Returns whether the query
// survived.
func (sm *sim) onCorruptHandoff(qi int32) bool {
	if sm.cfg.Policy == PolicyNone {
		sm.failQuery(qi, "corrupt-mapid")
		return false
	}
	q := &sm.qs[qi]
	q.penalty += MapIDRepairSeconds
	sm.m.CorruptRepaired++
	sm.traceInstant("mapid-repair", q)
	return true
}

// failQuery terminally fails a query (fault consequence, not a timeout
// or rejection).
func (sm *sim) failQuery(qi int32, why string) {
	sm.m.Failed++
	sm.inSystem--
	sm.traceInstant(why, &sm.qs[qi])
	sm.traceDepth()
	sm.release(qi)
}

// onLaneDown starts (or extends) a PIM-lane outage on a replica and
// chains the stream's next window into the event heap.
func (sm *sim) onLaneDown(ri int, until float64) error {
	r := &sm.reps[ri]
	if !r.pimDown {
		r.pimDown = true
		r.downAt = sm.now
		sm.m.LaneFailures++
		sm.traceFault("lane-down", ri)
	}
	if until > r.downUntil {
		r.downUntil = until
	}
	sm.push(event{at: until, kind: evLaneUp, rep: int32(ri)})
	// Drain-triggered outages have no per-replica fault stream to chain.
	if ri < len(sm.flt.lanes) {
		if w, ok := sm.flt.lanes[ri].Next(); ok {
			sm.push(event{at: w.Start, kind: evLaneDown, rep: int32(ri), until: w.End})
		}
	}
	// Queries already queued on the dead lane reroute now; an in-flight
	// quantum still completes (fail-stop at scheduling boundaries).
	return sm.dispatchDecode(ri)
}

// onLaneUp ends an outage unless a later-ending overlap still holds the
// lane down.
func (sm *sim) onLaneUp(ri int) error {
	r := &sm.reps[ri]
	if !r.pimDown || sm.now < r.downUntil {
		return nil
	}
	r.pimDown = false
	sm.flt.outages.Record(sm.now - r.downAt)
	sm.traceFault("lane-up", ri)
	return sm.dispatchDecode(ri)
}

// pimLive reports whether dispatching on ri's PIM lane would succeed
// right now, without mutating breaker state (used to pick failover
// targets).
func (sm *sim) pimLive(ri int) bool {
	r := &sm.reps[ri]
	if sm.cfg.BreakerThreshold > 0 && r.brk.Blocked(sm.now, DefaultBreakerCooldown) {
		return false
	}
	return !r.pimDown
}

// acquirePIM decides whether a decode quantum may start on ri's PIM
// lane, driving the circuit breaker: failures count toward opening it,
// an open breaker rejects dispatches until its cooldown, and the first
// dispatch after the cooldown probes the lane (half-open).
func (sm *sim) acquirePIM(ri int) bool {
	r := &sm.reps[ri]
	threshold := sm.cfg.BreakerThreshold
	if threshold > 0 && !r.brk.Admit(sm.now, DefaultBreakerCooldown) {
		return false
	}
	if r.pimDown {
		if threshold > 0 && r.brk.Failure(sm.now, threshold) {
			sm.m.BreakerOpens++
			sm.traceFault("breaker-open", ri)
		}
		return false
	}
	if threshold > 0 && r.brk.Success() {
		sm.traceFault("breaker-close", ri)
	}
	return true
}

// liveReplica returns the lowest-index replica other than ri with spare
// live decode capacity right now — PIM lane up, idle, and no decode
// backlog — or -1. Migrating onto a busy lane would just queue the
// query behind the target's own decodes (often worse than the local SoC
// fallback), so failover only claims genuinely idle capacity; that is
// what makes it never worse than PolicySoCFallback.
func (sm *sim) liveReplica(ri int) int {
	for i := range sm.reps {
		if i != ri && sm.pimLive(i) && !sm.reps[i].pimBusy && sm.reps[i].decodeQ.empty() {
			return i
		}
	}
	return -1
}

// degrade routes a query whose PIM dispatch failed according to the
// configured policy: fail it, run its decode on the SoC fallback path,
// or migrate it to a live replica (falling back to SoC when none).
func (sm *sim) degrade(qi int32, ri int) error {
	q := &sm.qs[qi]
	switch sm.cfg.Policy {
	case PolicyFailover:
		if rj := sm.liveReplica(ri); rj >= 0 {
			sm.m.FailedOver++
			q.penalty += DefaultFailoverPenalty
			sm.traceInstant("failover", q)
			sm.reps[rj].decodeQ.push(sm.qs, qi)
			return sm.dispatchDecode(rj)
		}
		fallthrough
	case PolicySoCFallback:
		if !q.degraded {
			q.degraded = true
			sm.m.Degraded++
			sm.traceInstant("degrade", q)
		}
		sm.reps[ri].socQ.push(sm.qs, qi)
		return sm.dispatchSoCDecode(ri)
	default:
		sm.failQuery(qi, "lane-fail")
		return nil
	}
}

// dispatchSoCDecode starts the next degraded decode quantum on a
// replica's SoC lane. Prefills have priority: every lane-freeing event
// offers the lane to dispatchPrefills first, so the fallback path only
// uses prefill-idle time — the degradation is visible as TBT/TTLT
// inflation rather than starved admissions.
func (sm *sim) dispatchSoCDecode(ri int) error {
	r := &sm.reps[ri]
	for !r.socBusy && !r.socQ.empty() {
		qi := r.socQ.pop(sm.qs)
		if sm.expired(&sm.qs[qi]) {
			sm.abort(qi)
			continue
		}
		if err := sm.startQuantum(qi, ri, traceLaneSoC, sm.now); err != nil {
			return err
		}
	}
	return nil
}

// backoff returns the jittered, capped exponential client backoff for
// a retry attempt (attempt >= 1). The jitter comes from the run-owned
// retry RNG, so runs stay reproducible.
func (sm *sim) backoff(attempt int) float64 {
	d := DefaultRetryBase * math.Pow(2, float64(attempt-1))
	if d > DefaultRetryCap {
		d = DefaultRetryCap
	}
	return d/2 + sm.retryRNG.Float64()*d/2
}

// traceFault records a lane-level fault marker on the replica's PIM
// lane track.
func (sm *sim) traceFault(name string, ri int) {
	if sm.tr == nil {
		return
	}
	sm.tr.InstantArg(sm.pid0+int64(ri), traceLanePIM, name, sm.now*traceUSPerS, "replica", float64(ri))
}
