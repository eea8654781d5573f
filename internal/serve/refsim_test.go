package serve

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/fault"
	"facil/internal/obs"
	"facil/internal/stats"
	"facil/internal/workload"
)

// ReferenceSim is the retained heap-based serving simulator: the
// implementation serve.Sim had before its event loop was rebuilt, kept
// verbatim as the differential-testing oracle (the dram.ReferenceChannel
// pattern). It drives every event through a global container/heap of
// pointer-boxed events and allocates per query; the optimized Sim must
// reproduce its Metrics, Live counter movement and completion clocks
// bit-for-bit. It is not maintained for speed — use Sim for real runs.
type ReferenceSim struct {
	sm       *refSim
	finished bool
}

// NewReferenceSim validates cfg and builds a ready-to-step reference
// simulation, exactly as NewSim does for the optimized engine.
func NewReferenceSim(s *engine.System, cfg SimConfig) (*ReferenceSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.preemptSteps == 0 {
		cfg.preemptSteps = DefaultPreemptSteps
	}
	ds, err := workload.Generate(cfg.Workload, cfg.Queries, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	sm := &refSim{
		cfg:  cfg,
		sys:  s,
		reps: make([]refReplica, cfg.Replicas),
		m:    Metrics{Mode: cfg.Mode, Kind: cfg.Kind, Replicas: cfg.Replicas},
	}
	if cfg.Tracer.Enabled() {
		sm.tr = cfg.Tracer
		sm.pid0 = cfg.TracePIDBase
		sm.qpid = cfg.TracePIDBase + int64(cfg.Replicas)
		sm.initTrace()
	}
	if cfg.Mode == RelayoutHybrid {
		if sm.relay, err = s.RelayoutAllWeightsSeconds(); err != nil {
			return nil, err
		}
	}
	if sm.steps, err = newStepTable(s, cfg.Kind, ds.Queries); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var clock float64
	for i, q := range ds.Queries {
		clock += rng.ExpFloat64() / cfg.ArrivalRate
		sm.push(refEvent{at: clock, kind: evArrival, q: &query{
			id: i, arrival: clock, prefill: q.Prefill, decode: q.Decode,
		}})
	}
	sm.open = cfg.Queries
	if cfg.MaxRetries > 0 {
		sm.retryRNG = rand.New(rand.NewSource(cfg.Seed + 2))
	}
	if !cfg.Faults.Empty() {
		if err := sm.initFaults(s); err != nil {
			return nil, err
		}
	}
	Live.runsStarted.Add(1)
	return &ReferenceSim{sm: sm}, nil
}

// ReferenceRun drives a ReferenceSim to exhaustion and returns its
// Metrics — the oracle counterpart of Run.
func ReferenceRun(s *engine.System, cfg SimConfig) (Metrics, error) {
	sim, err := NewReferenceSim(s, cfg)
	if err != nil {
		return Metrics{}, err
	}
	for {
		more, err := sim.Step()
		if err != nil {
			return Metrics{}, err
		}
		if !more {
			break
		}
	}
	return sim.Finish(), nil
}

// Step processes the next pending event and reports whether any events
// remain afterwards.
func (s *ReferenceSim) Step() (bool, error) { return s.sm.step() }

// Now returns the simulation's virtual clock in seconds.
func (s *ReferenceSim) Now() float64 { return s.sm.now }

// Pending returns the number of scheduled events not yet processed.
func (s *ReferenceSim) Pending() int { return s.sm.evs.Len() }

// Finish reduces the run into its Metrics (idempotent in the Live
// counters, like Sim.Finish).
func (s *ReferenceSim) Finish() Metrics {
	if !s.finished {
		s.finished = true
		Live.runsFinished.Add(1)
	}
	return s.sm.finish()
}

// stepTable is the reference's frozen engine cost: the decode-step
// latency of every context its queries can reach, copied from the
// engine when the run is built. Row 0 is the configured design, row 1
// engine.SoCOnly (the degraded path); each is indexed by context.
// Reading a slice instead of DecodeStepSeconds keeps the reference's
// cost that of its event loop, so a faster engine lookup cannot shrink
// the ratio TestOptimizedSimSpeedup measures.
type stepTable [2][]float64

// newStepTable fills a stepTable for kind over qs from the engine.
func newStepTable(s *engine.System, kind engine.Kind, qs []workload.Query) (stepTable, error) {
	var tab stepTable
	maxCtx := 0
	for _, q := range qs {
		maxCtx = max(maxCtx, q.Prefill+q.Decode-1)
	}
	for i, k := range [...]engine.Kind{kind, engine.SoCOnly} {
		row := make([]float64, maxCtx+1)
		for _, q := range qs {
			for ctx := q.Prefill + 1; ctx < q.Prefill+q.Decode; ctx++ {
				if row[ctx] != 0 {
					continue
				}
				st, err := s.DecodeStepSeconds(k, ctx)
				if err != nil {
					return tab, err
				}
				row[ctx] = st
			}
		}
		tab[i] = row
	}
	return tab, nil
}

// stepSeconds reads one decode-step latency from the run's stepTable.
func (sm *refSim) stepSeconds(kind engine.Kind, ctx int) float64 {
	if kind == sm.cfg.Kind {
		return sm.steps[0][ctx]
	}
	return sm.steps[1][ctx]
}

// refEvent is one entry of the reference simulator's time-ordered heap:
// the original pointer-boxed event layout.
type refEvent struct {
	at     float64
	seq    int64
	kind   evKind
	q      *query
	rep    int
	steps  int
	dur    float64
	factor float64
	soc    bool
	until  float64
}

// refEventHeap is the reference min-heap ordered by (at, seq).
type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push appends a boxed event (container/heap plumbing).
func (h *refEventHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

// Pop removes and returns the last element (container/heap plumbing).
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refArena is the reference simulator's pointer free list, retained
// alongside the heap it fed.
type refArena struct {
	free []*refEvent
}

func (a *refArena) get() *refEvent {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free = a.free[:n-1]
		return e
	}
	return new(refEvent)
}

func (a *refArena) put(e *refEvent) {
	*e = refEvent{}
	a.free = append(a.free, e)
}

// refReplica is one device in the reference simulator, with slice-backed
// pending queues.
type refReplica struct {
	socBusy   bool
	pimBusy   bool
	pimFreeAt float64
	decodeQ   []*query

	pimDown   bool
	downAt    float64
	downUntil float64
	brk       Breaker
	socQ      []*query
}

// refSim is the run state of one reference simulation — a field-for-field
// copy of the original sim.
type refSim struct {
	cfg   SimConfig
	sys   *engine.System
	evs   refEventHeap
	arena refArena
	seq   int64
	reps  []refReplica
	wait  []*query
	relay float64

	now      float64
	inSystem int
	lastT    float64

	open int

	flt *faultState

	retryRNG *rand.Rand

	socBusySecs, pimBusySecs float64

	m     Metrics
	ttfts []float64
	ttlts []float64
	tbts  []float64

	tr   *obs.Tracer
	pid0 int64
	qpid int64

	steps stepTable
}

func (sm *refSim) initTrace() {
	label := sm.cfg.TraceLabel
	if label == "" {
		label = sm.cfg.Mode.String()
	}
	for ri := 0; ri < sm.cfg.Replicas; ri++ {
		pid := sm.pid0 + int64(ri)
		sm.tr.ProcessName(pid, fmt.Sprintf("%s replica %d", label, ri))
		sm.tr.ThreadName(pid, traceLaneSoC, "SoC prefill lane")
		sm.tr.ThreadName(pid, traceLanePIM, "PIM decode lane")
	}
	sm.tr.ProcessName(sm.qpid, label+" admission queue")
}

func (sm *refSim) traceSpan(ri int, lane int64, name string, q *query, start, dur float64) {
	if sm.tr == nil {
		return
	}
	sm.tr.CompleteArg(sm.pid0+int64(ri), lane, name, start*traceUSPerS, dur*traceUSPerS, "query", float64(q.id))
}

func (sm *refSim) traceInstant(name string, q *query) {
	if sm.tr == nil {
		return
	}
	sm.tr.InstantArg(sm.qpid, 0, name, sm.now*traceUSPerS, "query", float64(q.id))
}

func (sm *refSim) traceDepth() {
	if sm.tr == nil {
		return
	}
	sm.tr.Counter(sm.qpid, "in-system queries", sm.now*traceUSPerS, float64(sm.inSystem))
}

func (sm *refSim) push(ev refEvent) {
	e := sm.arena.get()
	*e = ev
	e.seq = sm.seq
	sm.seq++
	heap.Push(&sm.evs, e)
}

// addVirtual accumulates one clock advance (seconds) into the Live
// odometer, as the reference sim does on every advance.
func (l *LiveStats) addVirtual(dt float64) {
	l.virtualNanos.Add(int64(dt * 1e9))
}

func (sm *refSim) advance(t float64) {
	if dt := t - sm.lastT; dt > 0 {
		sm.m.QueueDepth.Add(float64(sm.inSystem), dt)
		sm.lastT = t
		Live.addVirtual(dt)
	}
	sm.now = t
}

func (sm *refSim) step() (bool, error) {
	for sm.evs.Len() > 0 {
		e := heap.Pop(&sm.evs).(*refEvent)
		if (e.kind == evLaneDown || e.kind == evLaneUp) && sm.open == 0 {
			sm.arena.put(e)
			continue
		}
		sm.advance(e.at)
		Live.events.Add(1)
		var err error
		switch e.kind {
		case evArrival:
			err = sm.onArrival(e.q)
		case evPrefillDone:
			err = sm.onPrefillDone(e.q, e.rep)
		case evQuantumDone:
			err = sm.onQuantumDone(e)
		case evLaneDown:
			err = sm.onLaneDown(e.rep, e.until)
		case evLaneUp:
			err = sm.onLaneUp(e.rep)
		}
		sm.arena.put(e)
		return true, err
	}
	return false, nil
}

func (sm *refSim) onArrival(q *query) error {
	if q.attempts == 0 {
		sm.m.Arrived++
		Live.arrived.Add(1)
	}
	if sm.cfg.QueueCap > 0 && sm.inSystem >= sm.cfg.QueueCap {
		if sm.cfg.MaxRetries > 0 && q.attempts < sm.cfg.MaxRetries {
			q.attempts++
			sm.m.Retries++
			Live.retries.Add(1)
			sm.traceInstant("retry", q)
			sm.push(refEvent{at: sm.now + sm.backoff(q.attempts), kind: evArrival, q: q})
			return nil
		}
		sm.m.Rejected++
		Live.rejected.Add(1)
		sm.open--
		sm.traceInstant("reject", q)
		return nil
	}
	sm.m.Admitted++
	Live.admitted.Add(1)
	sm.maybeCorrupt(q)
	sm.inSystem++
	if sm.inSystem > sm.m.MaxQueueDepth {
		sm.m.MaxQueueDepth = sm.inSystem
	}
	sm.traceInstant("arrival", q)
	sm.traceDepth()
	sm.wait = append(sm.wait, q)
	return sm.dispatchPrefills()
}

func (sm *refSim) expired(q *query) bool {
	return sm.cfg.Timeout > 0 && sm.now-q.arrival > sm.cfg.Timeout
}

func (sm *refSim) abort(q *query) {
	sm.m.TimedOut++
	Live.timedOut.Add(1)
	sm.inSystem--
	sm.open--
	sm.traceInstant("timeout", q)
	sm.traceDepth()
}

func (sm *refSim) dispatchPrefills() error {
	for len(sm.wait) > 0 {
		q := sm.wait[0]
		if sm.expired(q) {
			sm.wait = sm.wait[1:]
			sm.abort(q)
			continue
		}
		ri := -1
		for i := range sm.reps {
			r := &sm.reps[i]
			if r.socBusy {
				continue
			}
			if sm.cfg.Mode == Serial && (r.pimBusy || len(r.decodeQ) > 0) {
				continue
			}
			ri = i
			break
		}
		if ri < 0 {
			return nil
		}
		sm.wait = sm.wait[1:]
		if err := sm.startPrefill(q, ri); err != nil {
			return err
		}
	}
	return nil
}

func (sm *refSim) startPrefill(q *query, ri int) error {
	r := &sm.reps[ri]
	switch sm.cfg.Mode {
	case Serial:
		ttft, err := sm.sys.TTFT(sm.cfg.Kind, q.prefill)
		if err != nil {
			return err
		}
		ttlt, err := sm.sys.TTLT(sm.cfg.Kind, q.prefill, q.decode)
		if err != nil {
			return err
		}
		r.socBusy, r.pimBusy = true, true
		sm.socBusySecs += ttlt
		sm.pimBusySecs += ttlt
		sm.traceSpan(ri, traceLaneSoC, "prefill", q, sm.now, ttft)
		sm.push(refEvent{at: sm.now + ttft, kind: evPrefillDone, q: q, rep: ri})
		return nil
	default:
		pre, err := sm.sys.TTFTStatic(sm.cfg.Kind, q.prefill)
		if err != nil {
			return err
		}
		pre *= sm.factorAt(sm.now)
		if sm.cfg.Mode == RelayoutHybrid {
			switch sm.cfg.Kind {
			case engine.HybridStatic, engine.HybridDynamic:
				// Re-layout already inside TTFTStatic.
			default:
				pre += sm.relay
			}
			if t := sm.now + sm.relay; t > r.pimFreeAt {
				r.pimFreeAt = t
			}
			sm.traceSpan(ri, traceLanePIM, "relayout", q, sm.now, sm.relay)
		}
		r.socBusy = true
		sm.socBusySecs += pre
		sm.traceSpan(ri, traceLaneSoC, "prefill", q, sm.now, pre)
		sm.push(refEvent{at: sm.now + pre, kind: evPrefillDone, q: q, rep: ri})
		return nil
	}
}

func (sm *refSim) onPrefillDone(q *query, ri int) error {
	r := &sm.reps[ri]
	q.firstToken = sm.now
	q.prevToken = sm.now
	sm.ttfts = append(sm.ttfts, sm.now-q.arrival)
	if sm.cfg.Mode == Serial {
		if q.decode <= 1 {
			return sm.completeSerial(q, ri)
		}
		dur := sm.quantumSecondsKind(q, q.decode-1, sm.cfg.Kind, 1)
		sm.push(refEvent{at: sm.now + dur, kind: evQuantumDone, q: q, rep: ri, steps: q.decode - 1})
		return nil
	}
	r.socBusy = false
	if q.decode <= 1 {
		sm.complete(q)
	} else if !q.corrupt || sm.onCorruptHandoff(q) {
		r.decodeQ = append(r.decodeQ, q)
	}
	if err := sm.dispatchPrefills(); err != nil {
		return err
	}
	return sm.dispatchDecode(ri)
}

func (sm *refSim) quantumSecondsKind(q *query, steps int, kind engine.Kind, factor float64) float64 {
	var t float64
	for i := 0; i < steps; i++ {
		t += sm.stepSeconds(kind, q.prefill+q.stepsDone+i+1) * factor
	}
	return t
}

func (sm *refSim) emitTokens(q *query, start float64, steps int, kind engine.Kind, factor float64) {
	t := start
	for i := 0; i < steps; i++ {
		t += sm.stepSeconds(kind, q.prefill+q.stepsDone+i+1) * factor
		if !sm.cfg.NoTBT {
			sm.tbts = append(sm.tbts, t-q.prevToken)
		}
		q.prevToken = t
	}
	q.stepsDone += steps
}

func (sm *refSim) dispatchDecode(ri int) error {
	r := &sm.reps[ri]
	for !r.pimBusy && len(r.decodeQ) > 0 {
		q := r.decodeQ[0]
		r.decodeQ = r.decodeQ[1:]
		if sm.expired(q) {
			sm.abort(q)
			continue
		}
		if sm.flt != nil && !sm.acquirePIM(ri) {
			if err := sm.degrade(q, ri); err != nil {
				return err
			}
			continue
		}
		steps := q.decode - 1 - q.stepsDone
		if steps > sm.cfg.preemptSteps {
			steps = sm.cfg.preemptSteps
		}
		start := sm.now
		if r.pimFreeAt > start {
			start = r.pimFreeAt
		}
		factor := sm.factorAt(start)
		dur := sm.quantumSecondsKind(q, steps, sm.cfg.Kind, factor)
		penalty := q.penalty
		q.penalty = 0
		r.pimBusy = true
		sm.pimBusySecs += penalty + dur
		if penalty > 0 {
			sm.traceSpan(ri, traceLanePIM, "fault-recovery", q, start, penalty)
		}
		sm.push(refEvent{
			at: start + penalty + dur, kind: evQuantumDone, q: q, rep: ri,
			steps: steps, dur: dur, factor: factor,
		})
	}
	if sm.flt != nil && sm.cfg.Policy != PolicyNone {
		return sm.dispatchSoCDecode(ri)
	}
	return nil
}

func (sm *refSim) onQuantumDone(e *refEvent) error {
	q, ri, steps := e.q, e.rep, e.steps
	r := &sm.reps[ri]
	if sm.cfg.Mode == Serial {
		sm.emitTokens(q, q.firstToken, steps, sm.cfg.Kind, 1)
		sm.traceSpan(ri, traceLanePIM, "decode", q, q.firstToken, sm.now-q.firstToken)
		return sm.completeSerial(q, ri)
	}
	kind, lane := sm.cfg.Kind, traceLanePIM
	if e.soc {
		kind, lane = engine.SoCOnly, traceLaneSoC
	}
	sm.emitTokens(q, sm.now-e.dur, steps, kind, e.factor)
	sm.traceSpan(ri, lane, "decode", q, sm.now-e.dur, e.dur)
	if e.soc {
		r.socBusy = false
	} else {
		r.pimBusy = false
	}
	if q.stepsDone >= q.decode-1 {
		sm.complete(q)
	} else {
		r.decodeQ = append(r.decodeQ, q)
	}
	if e.soc {
		if err := sm.dispatchPrefills(); err != nil {
			return err
		}
	}
	return sm.dispatchDecode(ri)
}

func (sm *refSim) complete(q *query) {
	sm.m.Completed++
	Live.completed.Add(1)
	sm.inSystem--
	sm.open--
	ttlt := q.prevToken - q.arrival
	sm.ttlts = append(sm.ttlts, ttlt)
	if sm.cfg.DeadlineTTLT == 0 || ttlt <= sm.cfg.DeadlineTTLT {
		sm.m.SLOMet++
	}
	sm.traceInstant("complete", q)
	sm.traceDepth()
}

func (sm *refSim) completeSerial(q *query, ri int) error {
	r := &sm.reps[ri]
	r.socBusy, r.pimBusy = false, false
	sm.complete(q)
	return sm.dispatchPrefills()
}

// sortQuantiles is the reference's frozen quantile oracle: it sorts a
// copy of xs, reads each percentile's interpolation ranks lo and lo+1
// from it, and sums xs in its own order for the mean. It never reorders
// xs. The differential tests hold Finish's in-place selection to it bit
// for bit.
func sortQuantiles(xs []float64) stats.Quantiles {
	if len(xs) == 0 {
		return stats.Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := func(p float64) float64 {
		rank := p / 100 * float64(len(s)-1)
		lo := int(rank)
		frac := rank - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return stats.Quantiles{Mean: sum / float64(len(xs)), P50: pct(50), P95: pct(95), P99: pct(99)}
}

func (sm *refSim) finish() Metrics {
	m := &sm.m
	m.TTFT = sortQuantiles(sm.ttfts)
	m.TTLT = sortQuantiles(sm.ttlts)
	m.TBT = sortQuantiles(sm.tbts)
	m.Makespan = sm.now
	if m.Makespan > 0 {
		m.ThroughputQPS = float64(m.Completed) / m.Makespan
		m.GoodputQPS = float64(m.SLOMet) / m.Makespan
		rs := float64(sm.cfg.Replicas) * m.Makespan
		m.SoCUtilization = sm.socBusySecs / rs
		m.PIMUtilization = sm.pimBusySecs / rs
	}
	m.Availability = 1
	if sm.flt != nil {
		var residual float64
		for ri := range sm.reps {
			if sm.reps[ri].pimDown {
				residual += sm.now - sm.reps[ri].downAt
			}
		}
		m.LaneDownSecs = sm.flt.outages.TotalDown + residual
		m.LaneMTTR = sm.flt.outages.MTTR()
		if rs := float64(sm.cfg.Replicas) * m.Makespan; rs > 0 {
			m.Availability = 1 - m.LaneDownSecs/rs
			if m.Availability < 0 {
				m.Availability = 0
			}
		}
	}
	return *m
}

// Fault layer (reference copies of the sim methods in fault.go).

func (sm *refSim) initFaults(s *engine.System) error {
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
			sm.push(refEvent{at: w.Start, kind: evLaneDown, rep: ri, until: w.End})
		}
	}
	sm.flt = fs
	return nil
}

func (sm *refSim) factorAt(t float64) float64 {
	if sm.flt == nil || sm.flt.thermal == 1 || !sm.flt.sc.ThermalAt(t) {
		return 1
	}
	return sm.flt.thermal
}

func (sm *refSim) maybeCorrupt(q *query) {
	if sm.flt == nil || sm.flt.crng == nil {
		return
	}
	if sm.flt.crng.Float64() < sm.flt.sc.MapIDCorruptRate {
		q.corrupt = true
		sm.m.CorruptMapIDs++
	}
}

func (sm *refSim) onCorruptHandoff(q *query) bool {
	if sm.cfg.Policy == PolicyNone {
		sm.failQuery(q, "corrupt-mapid")
		return false
	}
	q.penalty += MapIDRepairSeconds
	sm.m.CorruptRepaired++
	sm.traceInstant("mapid-repair", q)
	return true
}

func (sm *refSim) failQuery(q *query, why string) {
	sm.m.Failed++
	Live.failed.Add(1)
	sm.inSystem--
	sm.open--
	sm.traceInstant(why, q)
	sm.traceDepth()
}

func (sm *refSim) onLaneDown(ri int, until float64) error {
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
	sm.push(refEvent{at: until, kind: evLaneUp, rep: ri})
	if w, ok := sm.flt.lanes[ri].Next(); ok {
		sm.push(refEvent{at: w.Start, kind: evLaneDown, rep: ri, until: w.End})
	}
	return sm.dispatchDecode(ri)
}

func (sm *refSim) onLaneUp(ri int) error {
	r := &sm.reps[ri]
	if !r.pimDown || sm.now < r.downUntil {
		return nil
	}
	r.pimDown = false
	sm.flt.outages.Record(sm.now - r.downAt)
	sm.traceFault("lane-up", ri)
	return sm.dispatchDecode(ri)
}

func (sm *refSim) pimLive(ri int) bool {
	r := &sm.reps[ri]
	if sm.cfg.BreakerThreshold > 0 && r.brk.Blocked(sm.now, DefaultBreakerCooldown) {
		return false
	}
	return !r.pimDown
}

func (sm *refSim) acquirePIM(ri int) bool {
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

func (sm *refSim) liveReplica(ri int) int {
	for i := range sm.reps {
		if i != ri && sm.pimLive(i) && !sm.reps[i].pimBusy && len(sm.reps[i].decodeQ) == 0 {
			return i
		}
	}
	return -1
}

func (sm *refSim) degrade(q *query, ri int) error {
	switch sm.cfg.Policy {
	case PolicyFailover:
		if rj := sm.liveReplica(ri); rj >= 0 {
			sm.m.FailedOver++
			Live.failedOver.Add(1)
			q.penalty += DefaultFailoverPenalty
			sm.traceInstant("failover", q)
			sm.reps[rj].decodeQ = append(sm.reps[rj].decodeQ, q)
			return sm.dispatchDecode(rj)
		}
		fallthrough
	case PolicySoCFallback:
		if !q.degraded {
			q.degraded = true
			sm.m.Degraded++
			Live.degraded.Add(1)
			sm.traceInstant("degrade", q)
		}
		sm.reps[ri].socQ = append(sm.reps[ri].socQ, q)
		return sm.dispatchSoCDecode(ri)
	default:
		sm.failQuery(q, "lane-fail")
		return nil
	}
}

func (sm *refSim) dispatchSoCDecode(ri int) error {
	r := &sm.reps[ri]
	for !r.socBusy && len(r.socQ) > 0 {
		q := r.socQ[0]
		r.socQ = r.socQ[1:]
		if sm.expired(q) {
			sm.abort(q)
			continue
		}
		steps := q.decode - 1 - q.stepsDone
		if steps > sm.cfg.preemptSteps {
			steps = sm.cfg.preemptSteps
		}
		factor := sm.factorAt(sm.now)
		dur := sm.quantumSecondsKind(q, steps, engine.SoCOnly, factor)
		penalty := q.penalty
		q.penalty = 0
		r.socBusy = true
		sm.socBusySecs += penalty + dur
		if penalty > 0 {
			sm.traceSpan(ri, traceLaneSoC, "fault-recovery", q, sm.now, penalty)
		}
		sm.push(refEvent{
			at: sm.now + penalty + dur, kind: evQuantumDone, q: q, rep: ri,
			steps: steps, dur: dur, factor: factor, soc: true,
		})
	}
	return nil
}

func (sm *refSim) backoff(attempt int) float64 {
	d := DefaultRetryBase * math.Pow(2, float64(attempt-1))
	if d > DefaultRetryCap {
		d = DefaultRetryCap
	}
	return d/2 + sm.retryRNG.Float64()*d/2
}

func (sm *refSim) traceFault(name string, ri int) {
	if sm.tr == nil {
		return
	}
	sm.tr.InstantArg(sm.pid0+int64(ri), traceLanePIM, name, sm.now*traceUSPerS, "replica", float64(ri))
}
