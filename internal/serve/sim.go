// Package serve layers serving on top of the inference engines: queries
// arrive over time, wait for a device, then run prefill and decode. Sim
// is the discrete-event loop behind every serving experiment — one
// device with N replicas, each a SoC prefill lane and a PIM decode lane
// on one weight copy, scheduled under a Mode. Queueing amplifies the
// latency differences between the designs: a slower engine is closer to
// saturation at the same arrival rate, so its *perceived*
// time-to-first-token degrades super-linearly. Not a paper experiment —
// an extension quantifying user-perceived responsiveness under load.
package serve

import (
	"fmt"
	"math"
	"math/rand"

	"facil/internal/engine"
	"facil/internal/fault"
	"facil/internal/obs"
	"facil/internal/stats"
	"facil/internal/workload"
)

// Mode selects how a replica's two lanes — the SoC (prefill GEMM) lane
// and the PIM (decode GEMV) lane — are scheduled against each other.
type Mode int

const (
	// Serial is the plain FCFS queue: one query occupies the whole
	// device from prefill start to last token, nothing overlaps. This
	// is the pre-FACIL on-device baseline.
	Serial Mode = iota
	// Cooperative is the FACIL operating point: one weight copy serves
	// both processors, so the SoC lane prefills query B while the PIM
	// lane decodes query A. Prefill always takes the SoC route (the PIM
	// lane is reserved for decode).
	Cooperative
	// RelayoutHybrid is the paper's baseline under the same two-lane
	// scheduler: every prefill handoff first re-lays the weights into
	// the SoC layout (cost from internal/relayout), and the PIM lane
	// stalls for that window because the weights are in flight.
	RelayoutHybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case Cooperative:
		return "cooperative"
	case RelayoutHybrid:
		return "relayout-hybrid"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode resolves a command-line mode name.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Serial, Cooperative, RelayoutHybrid} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown mode %q (serial, cooperative, relayout-hybrid)", s)
}

// Modes lists all scheduling modes in presentation order.
func Modes() []Mode { return []Mode{Serial, Cooperative, RelayoutHybrid} }

// SimConfig describes one event-driven serving scenario.
type SimConfig struct {
	// Mode schedules the lanes; Kind selects the latency model design.
	Mode Mode
	Kind engine.Kind
	// Replicas is the number of identical devices pulling from one
	// admission queue (1 = single on-device accelerator).
	Replicas int
	// ArrivalRate is the mean arrival rate in queries/second
	// (exponential inter-arrival gaps) of a generated run.
	ArrivalRate float64
	// Queries is the number of arrivals NewSim generates. 0 makes a
	// host-fed sim, which takes its arrivals from (*Sim).Inject until
	// (*Sim).Seal; Run rejects it.
	Queries int
	// Workload samples the (prefill, decode) lengths.
	Workload workload.Spec
	// Seed drives arrivals and lengths. Every Run owns its RNG, so
	// concurrent sweep points never share arrival state.
	Seed int64
	// QueueCap bounds the number of queries in the system (waiting plus
	// executing); arrivals beyond it are rejected. 0 = unbounded.
	QueueCap int
	// DeadlineTTLT is the SLO on arrival-to-last-token: completions
	// within it count toward goodput. 0 disables the SLO (goodput ==
	// throughput).
	DeadlineTTLT float64
	// Timeout hard-aborts a query whose age exceeds it, checked at the
	// scheduling boundaries (prefill dispatch and decode preemption
	// points). 0 = never.
	Timeout float64
	// Tracer, when enabled, records the run's structured timeline —
	// per-lane occupancy spans, queue-depth counters, admission/
	// rejection/timeout instants and re-layout windows — in trace-event
	// form (see internal/obs). A nil tracer costs one pointer test per
	// instrumentation point and records nothing.
	Tracer *obs.Tracer
	// TracePIDBase offsets this run's trace process ids so several
	// sweep points can share one tracer without colliding: the run uses
	// pids [TracePIDBase, TracePIDBase+Replicas] — one per replica plus
	// one for the admission-queue counter track.
	TracePIDBase int64
	// TraceLabel prefixes the run's trace track names (defaults to the
	// mode name), letting sweep points identify themselves in Perfetto.
	TraceLabel string

	// Faults is the injected fault scenario. The zero value disables
	// the fault layer entirely: the run draws no fault randomness,
	// schedules no fault events, and is byte-identical to a faultless
	// build. Non-empty scenarios require a two-lane mode (not Serial).
	Faults fault.Scenario
	// Policy selects the degradation response to PIM-lane loss and
	// detected MapID corruption (PolicyNone fails affected queries).
	Policy Policy
	// BreakerThreshold opens a replica's circuit breaker after that
	// many consecutive failed PIM dispatches (0 disables the breaker).
	BreakerThreshold int
	// MaxRetries is the client-side retry budget of a rejected
	// arrival: each retry re-submits the query after a jittered,
	// capped exponential backoff (DefaultRetryBase doubling up to
	// DefaultRetryCap); exhausting the budget counts the query as
	// Rejected. 0 disables retries.
	MaxRetries int

	// NoTBT drops the per-token inter-token-gap samples (Metrics.TBT
	// reports zero quantiles). A fleet host running hundreds of devices
	// over 1e5+ queries sets it to bound sample memory; TTFT and TTLT
	// are unaffected.
	NoTBT bool

	// preemptSteps overrides the decode quantum when positive. Only
	// this package's tests set it, to cross-check the quantum logic
	// against the reference simulator at other values.
	preemptSteps int
}

// DefaultPreemptSteps is the decode-lane scheduling quantum in decode
// steps: after that many tokens the lane rotates to the next waiting
// query (round-robin).
const DefaultPreemptSteps = 8

// Validate rejects degenerate scenarios: non-positive sizes, negative
// limits, NaN/Inf rates or durations anywhere (including the fault
// knobs), unknown policies, and fault injection in Serial mode (the
// fault model targets the two-lane schedulers). A host-fed run
// (Queries 0) takes its arrivals from Inject, so only a generated run
// needs a rate.
func (c SimConfig) Validate() error {
	if c.Queries < 0 {
		return fmt.Errorf("serve: query count must not be negative, got %d", c.Queries)
	}
	if c.Queries > 0 && badRate(c.ArrivalRate) {
		return fmt.Errorf("serve: arrival rate must be positive and finite, got %g", c.ArrivalRate)
	}
	if c.Replicas <= 0 {
		return fmt.Errorf("serve: replica count must be positive")
	}
	for name, v := range map[string]float64{
		"DeadlineTTLT": c.DeadlineTTLT,
		"Timeout":      c.Timeout,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("serve: %s must be a finite non-negative duration, got %g", name, v)
		}
	}
	if c.QueueCap < 0 || c.MaxRetries < 0 || c.BreakerThreshold < 0 {
		return fmt.Errorf("serve: negative limit in %+v", c)
	}
	if c.MaxRetries > 0 && c.QueueCap == 0 {
		return fmt.Errorf("serve: retries require a bounded queue (QueueCap > 0); nothing rejects otherwise")
	}
	if c.Policy < PolicyNone || c.Policy > PolicyFailover {
		return fmt.Errorf("serve: unknown policy %d", c.Policy)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if !c.Faults.Empty() && c.Mode == Serial {
		return fmt.Errorf("serve: fault injection requires a two-lane mode (cooperative or relayout-hybrid), not serial")
	}
	return nil
}

// badRate reports a rate that is non-positive, NaN or infinite.
func badRate(v float64) bool {
	return !(v > 0) || math.IsInf(v, 0)
}

// Metrics summarizes one event-driven serving run.
type Metrics struct {
	Mode     Mode
	Kind     engine.Kind
	Replicas int

	// Query accounting: Arrived = Admitted + Rejected and
	// Admitted = Completed + TimedOut + Failed + Retracted (Failed is
	// zero without a fault scenario and Retracted is zero outside
	// host-driven migration, reducing to the pre-fault identities).
	// Each query counts once regardless of retries: Rejected counts
	// only queries whose retry budget ran out.
	Arrived, Admitted, Rejected int
	Completed, TimedOut         int
	// Failed counts queries terminally lost to faults: PolicyNone
	// decode on a dead PIM lane, or silent MapID mis-translation.
	Failed int
	// Retracted counts queries pulled back out of this sim by the
	// retraction API (cross-device migration): admitted
	// here, finished elsewhere. A migrated query re-counts as Arrived
	// and Admitted at its destination, so fleet-level identities sum
	// the per-device ones plus the migration flow.
	Retracted int

	// Degraded counts queries that ran at least one decode quantum on
	// the SoC fallback path; FailedOver counts decode migrations to
	// another replica; Retries counts client-side re-submissions after
	// a rejection; BreakerOpens counts circuit-breaker open
	// transitions (including half-open reopens).
	Degraded, FailedOver, Retries, BreakerOpens int
	// CorruptMapIDs counts queries whose PTE MapID the scenario
	// corrupted; CorruptRepaired the subset detected at the decode
	// handoff and repaired by a page-table re-walk (the rest surface
	// in Failed).
	CorruptMapIDs, CorruptRepaired int

	// LaneFailures is the number of PIM-lane outages that began during
	// the run; LaneDownSecs their summed duration (clipped to the
	// makespan); LaneMTTR the mean observed repair time of outages
	// that were repaired within the run.
	LaneFailures int
	LaneDownSecs float64
	LaneMTTR     float64
	// Availability is the PIM-lane up fraction over replica-seconds of
	// makespan (1 with no faults).
	Availability float64

	// TTFT is arrival to first token, TTLT arrival to last token, TBT
	// the gap between consecutive tokens of one query (including
	// preemption wait). All in seconds, over completed queries.
	TTFT, TTLT, TBT stats.Quantiles

	// Makespan is simulation start (t=0) to the last event; the first
	// arrival lands one exponential gap after t=0.
	Makespan float64
	// ThroughputQPS is completions per second of makespan; GoodputQPS
	// counts only completions within DeadlineTTLT.
	ThroughputQPS, GoodputQPS float64
	// SLOMet is the completion count behind GoodputQPS.
	SLOMet int

	// SoCUtilization and PIMUtilization are busy-seconds over
	// replica-seconds per lane type.
	SoCUtilization, PIMUtilization float64

	// QueueDepth is the time-weighted distribution of in-system queries
	// (waiting + executing); SoCBusy/PIMBusy the time-weighted busy-lane
	// counts (0..Replicas).
	QueueDepth       stats.TimeHist
	SoCBusy, PIMBusy stats.TimeHist
	// MaxQueueDepth is the deepest in-system backlog observed.
	MaxQueueDepth int
}

// query is one request flowing through the simulator. The optimized sim
// stores all of a run's queries in one slab, in arrival order, and
// threads pending FIFOs through the intrusive next link; the reference
// sim heap-allocates them and leaves next untouched.
type query struct {
	id      int
	arrival float64
	// start is the query's position in this sim's arrival stream — the
	// instant it enters admission. It equals arrival everywhere except
	// for migrated queries re-injected via InjectResume, which keep
	// their original arrival (latency and deadline accounting never
	// forget the wait on the retracting device) while entering this
	// sim's stream at the re-injection barrier.
	start           float64
	prefill, decode int
	stepsDone       int     // decode steps finished (of decode-1)
	firstToken      float64 // prefill completion (token 1)
	prevToken       float64 // last emitted token (TBT anchor)

	// next is the intrusive pending-list link (-1 = none). A query sits
	// in at most one place at a time — the admission FIFO, one decode
	// queue, one SoC fallback queue, or an in-flight event — so a single
	// link suffices.
	next int32

	// Fault-layer state (zero on the happy path):
	attempts int     // client retries consumed so far
	corrupt  bool    // scenario corrupted the PTE MapID
	degraded bool    // counted in Metrics.Degraded already
	resumed  bool    // migrated in after prefill ran elsewhere: skip straight to decode
	penalty  float64 // one-shot delay before the next quantum (failover migration, PTE repair)
}

// qlist is an intrusive FIFO of slab queries linked through query.next.
type qlist struct {
	head, tail int32
}

// emptyQlist is the ready-to-use empty list.
var emptyQlist = qlist{head: -1, tail: -1}

// empty reports whether the list holds no queries.
func (l *qlist) empty() bool { return l.head < 0 }

// push appends a query index to the tail.
func (l *qlist) push(qs []query, qi int32) {
	qs[qi].next = -1
	if l.tail < 0 {
		l.head = qi
	} else {
		qs[l.tail].next = qi
	}
	l.tail = qi
}

// pop unlinks and returns the head query index (callers check empty).
func (l *qlist) pop(qs []query) int32 {
	qi := l.head
	l.head = qs[qi].next
	if l.head < 0 {
		l.tail = -1
	}
	qs[qi].next = -1
	return qi
}

// replica is one device: a SoC lane, a PIM lane, and its decode queue
// (queries stay on the replica that prefilled them — the KV cache lives
// there).
type replica struct {
	socBusy bool
	pimBusy bool
	// pimFreeAt is when an in-flight relayout window releases the PIM
	// lane (RelayoutHybrid only).
	pimFreeAt float64
	decodeQ   qlist

	// Fault-layer state (untouched with the layer off):
	pimDown   bool    // PIM lane currently failed
	downAt    float64 // start of the current outage
	downUntil float64 // latest scheduled end of the current outage
	brk       Breaker // circuit breaker over the PIM lane
	socQ      qlist
}

// sim is the run state of one event-driven simulation. The hot path is
// allocation-free in steady state: queries live in one slab indexed by
// arrival order (the arrival stream needs no scheduling structure at
// all — nextArr is a cursor), dynamic events live in a value-typed
// min-heap that keeps its capacity, pending queries thread through
// intrusive qlists, and the per-token engine latencies are memoized in
// flat per-context arrays that bypass the engine's mutex-guarded cache.
type sim struct {
	cfg SimConfig
	sys *engine.System
	evs eventQueue
	// seq numbers dynamic events FIFO among equal times. Arrivals are
	// not events: stepUntil takes the arrival cursor on an exact tie,
	// so an arrival beats any queued event at the same instant.
	seq     int64
	qs      []query
	nextArr int32 // arrival cursor into qs
	reps    []replica
	wait    qlist   // admission FIFO feeding SoC lanes
	relay   float64 // per-handoff re-layout seconds (RelayoutHybrid)

	now      float64
	inSystem int
	busySoC  int
	busyPIM  int
	lastT    float64 // previous state-change instant for the TimeHists

	// open counts queries not yet terminal (completed, rejected, timed
	// out or failed); once it reaches zero — and the arrival stream is
	// sealed — pending fault events are discarded without advancing the
	// clock, so an infinite stochastic fault stream cannot stretch the
	// makespan.
	open int
	// sealed is true once no further Inject can come: from NewSim for
	// a generated run, after Seal for a host-fed one. An unsealed idle
	// sim keeps its fault events pending, because the host may still
	// inject work they must affect.
	sealed bool

	// stepMain/stepSoC memoize DecodeStepSeconds by context length for
	// the configured design and the SoC fallback path (0 = not yet
	// cached; real latencies are positive). preStatic memoizes
	// TTFTStatic by prefill length. Both engine calls are memoized per
	// System (shared by every sim on it), so these lock-free arrays
	// return the very floats the engine would and change nothing but
	// the lookup cost.
	stepMain  []float64
	stepSoC   []float64
	preStatic []float64

	// flt is nil with an empty fault scenario (layer off).
	flt *faultState

	// retryRNG exists only when MaxRetries > 0.
	retryRNG *rand.Rand

	// drainSeen is the drain-outage generation this sim has applied
	// (captured at construction, so only sims already running when
	// TriggerDrainOutage fires take the outage).
	drainSeen int64

	socBusySecs, pimBusySecs float64

	m Metrics
	// ttfts, ttlts and tbts are the latency samples, appended in
	// completion order until Finish reorders them in place. The sums
	// run beside them in append order, so each mean stays exact.
	ttfts, ttlts, tbts       []float64
	ttftSum, ttltSum, tbtSum float64

	// tr is nil when tracing is off; pid0 is the first replica's trace
	// pid and qpid the admission-queue counter track.
	tr   *obs.Tracer
	pid0 int64
	qpid int64
}

// Trace lane (thread) ids within one replica's trace process, and the
// seconds-to-trace-microseconds scale (trace-event timestamps are µs).
const (
	traceLaneSoC int64 = 0
	traceLanePIM int64 = 1
	traceUSPerS        = 1e6
)

// initTrace names the run's trace tracks: one process per replica (a SoC
// and a PIM lane thread each) plus one admission-queue counter process.
func (sm *sim) initTrace() {
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

// traceSpan records one lane-occupancy slice (prefill, decode quantum,
// re-layout window) tagged with the owning query.
func (sm *sim) traceSpan(ri int, lane int64, name string, q *query, start, dur float64) {
	if sm.tr == nil {
		return
	}
	sm.tr.CompleteArg(sm.pid0+int64(ri), lane, name, start*traceUSPerS, dur*traceUSPerS, "query", float64(q.id))
}

// traceInstant records an admission-path marker (arrival, reject,
// timeout, complete) on the queue track.
func (sm *sim) traceInstant(name string, q *query) {
	if sm.tr == nil {
		return
	}
	sm.tr.InstantArg(sm.qpid, 0, name, sm.now*traceUSPerS, "query", float64(q.id))
}

// traceDepth samples the in-system query count after a transition.
func (sm *sim) traceDepth() {
	if sm.tr == nil {
		return
	}
	sm.tr.Counter(sm.qpid, "in-system queries", sm.now*traceUSPerS, float64(sm.inSystem))
}

// Run simulates cfg.Queries through the two-lane replica fleet and
// summarizes latencies, throughput and lane utilization. The run is
// single-threaded and fully deterministic in cfg.Seed.
func Run(s *engine.System, cfg SimConfig) (Metrics, error) {
	if cfg.Queries == 0 {
		return Metrics{}, fmt.Errorf("serve: Run generates its arrivals; query count must be positive")
	}
	sim, err := NewSim(s, cfg)
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

// Sim is a pausable, steppable serving simulation: Run's event loop
// exposed one event at a time, so a host can advance virtual time in
// increments. The cluster router is that host: it drives one
// host-fed Sim per fleet device between telemetry barriers.
// Observers (facild's /metrics, which runs experiments through
// run.Engine) read lock-free Live counter snapshots meanwhile.
// Create with NewSim, call Step until it reports no more events, then
// reduce with Finish. Driving the loop to exhaustion and calling Finish
// is byte-identical to Run with the same config: stepping changes who
// turns the crank, not what happens.
//
// Internally the event loop runs on a min-heap of value-typed events
// merged against the in-order arrival stream; the test-only
// ReferenceSim (refsim_test.go) is the retained pointer-boxed
// implementation, and the differential tests hold the two bit-identical.
//
// A Sim is single-threaded: Step and Finish must not be called
// concurrently (snapshots of the global Live counters are the
// concurrent-read path).
type Sim struct {
	sm       *sim
	finished bool
}

// NewSim validates cfg and builds a ready-to-step simulation with the
// fault scenario (when armed) and a generated run's sealed arrival
// stream already scheduled, exactly as Run does before its loop.
func NewSim(s *engine.System, cfg SimConfig) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.preemptSteps == 0 {
		cfg.preemptSteps = DefaultPreemptSteps
	}
	sm := &sim{
		cfg:  cfg,
		sys:  s,
		reps: make([]replica, cfg.Replicas),
		m:    Metrics{Mode: cfg.Mode, Kind: cfg.Kind, Replicas: cfg.Replicas},
		wait: emptyQlist,
	}
	for ri := range sm.reps {
		sm.reps[ri].decodeQ = emptyQlist
		sm.reps[ri].socQ = emptyQlist
	}
	if cfg.Tracer.Enabled() {
		sm.tr = cfg.Tracer
		sm.pid0 = cfg.TracePIDBase
		sm.qpid = cfg.TracePIDBase + int64(cfg.Replicas)
		sm.initTrace()
	}
	if cfg.Mode == RelayoutHybrid {
		relay, err := s.RelayoutAllWeightsSeconds()
		if err != nil {
			return nil, err
		}
		sm.relay = relay
	}
	// A generated run owns two RNG streams — Seed draws one exponential
	// gap per query in arrival order, Seed+1 the token lengths — and
	// feeds its arrivals through the path Inject uses, then seals.
	if cfg.Queries > 0 {
		ds, err := workload.Generate(cfg.Workload, cfg.Queries, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		var clock float64
		sm.qs = make([]query, 0, cfg.Queries)
		tbtCap := 0
		for _, q := range ds.Queries {
			clock += rng.ExpFloat64() / cfg.ArrivalRate
			if err := sm.appendArrival("NewSim", query{arrival: clock, start: clock, prefill: q.Prefill, decode: q.Decode}); err != nil {
				return nil, err
			}
			tbtCap += max(q.Decode-1, 0)
		}
		sm.ttfts, sm.ttlts = make([]float64, 0, cfg.Queries), make([]float64, 0, cfg.Queries)
		if !cfg.NoTBT {
			sm.tbts = make([]float64, 0, tbtCap)
		}
		sm.sealed = true
	}
	// The fault and retry layers arm only when configured, so a
	// faultless run's event sequence (and RNG stream) is untouched.
	if cfg.MaxRetries > 0 {
		sm.retryRNG = rand.New(rand.NewSource(cfg.Seed + 2))
	}
	if !cfg.Faults.Empty() {
		if err := sm.initFaults(s); err != nil {
			return nil, err
		}
	}
	sm.drainSeen = drainGen.Load()
	Live.runsStarted.Add(1)
	return &Sim{sm: sm}, nil
}

// Step processes the next pending event and reports whether any events
// remain afterwards. On an error the simulation is poisoned: discard
// the Sim (partial metrics are meaningless).
func (s *Sim) Step() (bool, error) {
	return s.sm.step()
}

// Finish reduces the run into its Metrics. Call it after Step reports
// that no events remain; calling earlier summarizes a truncated run.
// The TTFT, TTLT and TBT quantiles are selected in place on the sim's
// sample buffers, with each mean taken from a sum kept in append order,
// so nothing is sorted, copied or allocated for them. Selection only
// reorders the buffers, so a second Finish, or one after further steps,
// summarizes the same samples exactly. Finish is idempotent in the
// Live counters (only the first call counts the run as finished).
func (s *Sim) Finish() Metrics {
	m, sm := s.Counters(), s.sm
	m.TTFT = stats.QuantilesInPlace(sm.ttfts, sm.ttftSum)
	m.TTLT = stats.QuantilesInPlace(sm.ttlts, sm.ttltSum)
	m.TBT = stats.QuantilesInPlace(sm.tbts, sm.tbtSum)
	return m
}

// Counters is Finish without the latency quantiles: TTFT, TTLT and TBT
// stay zero, every other field is Finish's, and the sample buffers keep
// their completion order. The cluster router reads its devices through
// it and pools their raw samples (Latencies).
func (s *Sim) Counters() Metrics {
	if !s.finished {
		s.finished = true
		Live.runsFinished.Add(1)
	}
	return s.sm.finish()
}

// Inject appends one externally-routed arrival to a host-fed run.
// Arrivals must be time-ordered and never behind the sim's clock: the
// host advances the sim only up to a horizon at or before the next
// injection time (the cluster router's telemetry barrier), so both
// monotonicity checks hold by construction there. The injected query
// enters the admission path at `at` on the next AdvanceTo that crosses
// it, subject to QueueCap like any generated arrival.
func (s *Sim) Inject(at float64, prefill, decode int) error {
	sm := s.sm
	if sm.sealed {
		return fmt.Errorf("serve: Inject after Seal")
	}
	if prefill <= 0 || decode <= 0 {
		return fmt.Errorf("serve: Inject token counts must be positive, got prefill=%d decode=%d", prefill, decode)
	}
	return sm.appendArrival("Inject", query{arrival: at, start: at, prefill: prefill, decode: decode})
}

// appendArrival is the one path onto the arrival stream: it
// rejects a start time that is not finite, behind the clock or before
// the last arrival, then appends q to the slab as the newest open query
// and grows the latency memos to cover its lengths. op names the caller
// in errors.
func (sm *sim) appendArrival(op string, q query) error {
	at := q.start
	if math.IsNaN(at) || math.IsInf(at, 0) || at < sm.now {
		return fmt.Errorf("serve: %s at %g behind the clock %g", op, at, sm.now)
	}
	if n := len(sm.qs); n > 0 && at < sm.qs[n-1].start {
		return fmt.Errorf("serve: %s arrivals must be time-ordered (%g after %g)", op, at, sm.qs[n-1].start)
	}
	q.id, q.next = len(sm.qs), -1
	sm.qs = append(sm.qs, q)
	sm.open++
	if c := q.prefill + q.decode + 1; c > len(sm.stepMain) {
		sm.stepMain = growCache(sm.stepMain, c)
		sm.stepSoC = growCache(sm.stepSoC, c)
	}
	if q.prefill+1 > len(sm.preStatic) {
		sm.preStatic = growCache(sm.preStatic, q.prefill+1)
	}
	return nil
}

// growCache resizes a flat latency-memo array, keeping cached entries.
func growCache(c []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, c)
	return out
}

// Seal marks a host-fed arrival stream complete: no further Inject
// calls are accepted, and once every injected query is terminal the
// remaining stochastic fault events are discarded without advancing the
// clock. Seal is idempotent; NewSim seals a generated run itself.
func (s *Sim) Seal() { s.sm.sealed = true }

// AdvanceTo processes every pending event strictly before t, in event
// order, leaving the clock on the last processed event (not at t —
// virtual time only ever sits on events). Events at exactly t stay
// pending for the next call, so advancing to a barrier then injecting
// arrivals at or after the barrier is race-free. AdvanceTo(math.Inf(1))
// drains the run; on error the simulation is poisoned, as with Step.
func (s *Sim) AdvanceTo(t float64) error {
	for {
		more, err := s.sm.stepUntil(t)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// Probe is a point-in-time, allocation-free view of a running sim's
// counters — the per-device health signal a fleet router reads at each
// telemetry barrier. All counts are cumulative since construction;
// deltas between probes are the barrier-interval signal.
type Probe struct {
	// Now is the sim's virtual clock (the last processed event).
	Now float64
	// InSystem is the current admitted-but-unfinished query count — the
	// live queue-depth signal behind least-loaded routing.
	InSystem int
	// Arrived, Admitted and Rejected mirror the Metrics admission
	// identities (Arrived = Admitted + Rejected for terminal queries).
	Arrived, Admitted, Rejected int
	// Completed, TimedOut and Failed are the terminal outcomes so far.
	Completed, TimedOut, Failed int
	// Retracted counts queries the host pulled back out for migration;
	// they left the system without a terminal outcome here.
	Retracted int
	// Degraded, FailedOver and BreakerOpens count the in-device
	// degradation machinery's activity.
	Degraded, FailedOver, BreakerOpens int
}

// Probe snapshots the sim's live counters. It must not race with Step
// or AdvanceTo on another goroutine (the cluster router probes between
// barriers, when the device is quiescent).
func (s *Sim) Probe() Probe {
	sm := s.sm
	return Probe{
		Now:          sm.now,
		InSystem:     sm.inSystem,
		Arrived:      sm.m.Arrived,
		Admitted:     sm.m.Admitted,
		Rejected:     sm.m.Rejected,
		Completed:    sm.m.Completed,
		TimedOut:     sm.m.TimedOut,
		Failed:       sm.m.Failed,
		Retracted:    sm.m.Retracted,
		Degraded:     sm.m.Degraded,
		FailedOver:   sm.m.FailedOver,
		BreakerOpens: sm.m.BreakerOpens,
	}
}

// Latencies exposes the raw per-query samples collected so far: TTFT
// (one per prefill completion) and TTLT (one per completion). They are
// in completion order until Finish, which reorders them in place. The
// slices alias the sim's sample buffers — callers must treat them as
// read-only and re-fetch after advancing further (appends may
// reallocate). The cluster router, which reads its devices through
// Counters and never calls Finish on them, tails TTFT for its
// latency-weighted EWMA.
func (s *Sim) Latencies() (ttft, ttlt []float64) {
	return s.sm.ttfts, s.sm.ttlts
}

// Retracted is one query pulled back out of a sim by
// Retract or RetractPrefilled — the unit of cross-device migration. It
// carries exactly what a destination sim needs to resume the query
// honestly via InjectResume: the original arrival time (latency and
// deadline accounting never forget the wait on the retracting device),
// the token lengths, and the decode progress when prefill already ran.
type Retracted struct {
	// Arrival is the query's original arrival time on the source sim's
	// clock (the fleet shares one virtual clock across devices).
	Arrival float64
	// Prefill and Decode are the query's token lengths.
	Prefill, Decode int
	// StepsDone is the decode progress so far (always 0 unless
	// Prefilled).
	StepsDone int
	// Prefilled reports that the query finished prefill on the source
	// device: its KV cache lives there, so resuming it elsewhere should
	// be charged the cross-device handoff penalty. Unstarted queries
	// move free — nothing has been computed for them yet.
	Prefilled bool
}

// Retract pulls the longest-waiting admission-queued query back out of
// a sim without perturbing started ones: the query leaves the system
// counted as Retracted (not as any terminal outcome), and the host
// re-injects it elsewhere with InjectResume. It returns false when the
// admission queue is empty.
// Like Inject, it must be called between advances, never concurrently
// with them — the cluster router retracts in the serial re-route phase
// at each telemetry barrier.
func (s *Sim) Retract() (Retracted, bool) {
	sm := s.sm
	if sm.wait.empty() {
		return Retracted{}, false
	}
	return sm.retract(sm.wait.pop(sm.qs), false), true
}

// RetractPrefilled pulls one prefilled-but-preempted query out of a
// sim: the head of the first non-empty decode queue. Its
// prefill work is kept (StepsDone and Prefilled travel with it), and
// the caller is expected to charge the KV-transfer penalty on
// re-injection. Queries mid-quantum and queries on the SoC fallback
// path are never retracted — the former are executing, the latter are
// already being served by the degradation policy. Returns false when
// nothing is retractable.
func (s *Sim) RetractPrefilled() (Retracted, bool) {
	sm := s.sm
	for ri := range sm.reps {
		if !sm.reps[ri].decodeQ.empty() {
			return sm.retract(sm.reps[ri].decodeQ.pop(sm.qs), true), true
		}
	}
	return Retracted{}, false
}

// retract books one already-unlinked query out of the sim.
func (sm *sim) retract(qi int32, prefilled bool) Retracted {
	q := &sm.qs[qi]
	sm.m.Retracted++
	Live.retracted.Add(1)
	sm.inSystem--
	sm.open--
	sm.traceInstant("retract", q)
	sm.traceDepth()
	return Retracted{
		Arrival: q.arrival, Prefill: q.prefill, Decode: q.decode,
		StepsDone: q.stepsDone, Prefilled: prefilled,
	}
}

// InjectResume appends a retracted query to a sim's arrival
// stream at time `at`, subject to the same ordering rules as Inject.
// The query keeps its original arrival for latency and deadline
// accounting but enters this sim's admission path at `at`; penalty is
// the one-shot handoff cost (KV-cache transfer and re-layout into the
// destination's mapping) charged before its first decode quantum here —
// pass 0 for unstarted queries, whose state is only their lengths. A
// prefilled query skips the destination's prefill lanes entirely and
// resumes decode where it left off. Unlike Inject, InjectResume is
// legal after Seal: it redistributes a query the fleet already
// admitted, which is exactly what a drain that keeps migrating away
// from failing devices needs.
func (s *Sim) InjectResume(at float64, r Retracted, penalty float64) error {
	sm := s.sm
	if r.Prefill <= 0 || r.Decode <= 0 {
		return fmt.Errorf("serve: InjectResume token counts must be positive, got prefill=%d decode=%d", r.Prefill, r.Decode)
	}
	if r.StepsDone < 0 || r.StepsDone > r.Decode-1 || (!r.Prefilled && r.StepsDone != 0) {
		return fmt.Errorf("serve: InjectResume got inconsistent decode progress %d of %d (prefilled=%t)", r.StepsDone, r.Decode, r.Prefilled)
	}
	if penalty < 0 || math.IsNaN(penalty) || math.IsInf(penalty, 0) {
		return fmt.Errorf("serve: InjectResume penalty must be a finite non-negative duration, got %g", penalty)
	}
	if math.IsNaN(r.Arrival) || r.Arrival > at {
		return fmt.Errorf("serve: InjectResume arrival %g after re-injection time %g", r.Arrival, at)
	}
	return sm.appendArrival("InjectResume", query{
		arrival: r.Arrival, start: at,
		prefill: r.Prefill, decode: r.Decode, stepsDone: r.StepsDone,
		resumed: r.Prefilled, penalty: penalty,
	})
}

// push queues a dynamic event with the next tie-break sequence number.
func (sm *sim) push(ev event) {
	ev.seq = sm.seq
	sm.seq++
	sm.evs.push(ev)
}

// stepSeconds is the flat-cache front of engine.DecodeStepSeconds: the
// serving loop calls it twice per token (quantum sizing and token
// replay), so the mutex-and-map engine cache is paid once per (kind,
// context) and array reads after that.
func (sm *sim) stepSeconds(kind engine.Kind, ctx int) (float64, error) {
	var cache []float64
	switch kind {
	case sm.cfg.Kind:
		cache = sm.stepMain
	case engine.SoCOnly:
		cache = sm.stepSoC
	}
	if cache != nil && ctx >= 0 && ctx < len(cache) {
		if v := cache[ctx]; v != 0 {
			return v, nil
		}
		v, err := sm.sys.DecodeStepSeconds(kind, ctx)
		if err != nil {
			return 0, err
		}
		cache[ctx] = v
		return v, nil
	}
	return sm.sys.DecodeStepSeconds(kind, ctx)
}

// ttftStatic is the flat-cache front of engine.TTFTStatic by prefill
// length (non-Serial prefill dispatch).
func (sm *sim) ttftStatic(prefill int) (float64, error) {
	if prefill >= 0 && prefill < len(sm.preStatic) {
		if v := sm.preStatic[prefill]; v != 0 {
			return v, nil
		}
		v, err := sm.sys.TTFTStatic(sm.cfg.Kind, prefill)
		if err != nil {
			return 0, err
		}
		sm.preStatic[prefill] = v
		return v, nil
	}
	return sm.sys.TTFTStatic(sm.cfg.Kind, prefill)
}

// advance moves the clock to t, charging the elapsed interval to the
// time-weighted histograms at the state held since the last change.
// Every clock movement funnels through here — arrivals, queued events,
// idle-gap jumps — so the histograms and the Live odometer cannot
// disagree about elapsed virtual time.
func (sm *sim) advance(t float64) {
	if dt := t - sm.lastT; dt > 0 {
		sm.m.QueueDepth.Add(float64(sm.inSystem), dt)
		sm.m.SoCBusy.Add(float64(sm.busySoC), dt)
		sm.m.PIMBusy.Add(float64(sm.busyPIM), dt)
		sm.lastT = t
		Live.addVirtual(dt)
	}
	sm.now = t
}

// step processes the next pending event with no horizon — the whole-run
// event loop. The merge logic lives in stepUntil; at an infinite horizon
// the limit reduces to the bare arrival cursor, so this is bit-identical
// to the pre-horizon loop.
func (sm *sim) step() (bool, error) {
	return sm.stepUntil(math.Inf(1))
}

// stepUntil merges the arrival cursor against the event heap, pops the
// earlier of the two if it lies strictly before horizon, handles it, and
// reports whether an event was processed. On an exact (at) tie the
// arrival goes first — the reference heap's order, where arrivals are
// pushed before any other event. An infinite horizon
// bounds nothing. Events at or past a finite horizon stay pending and
// the clock does not reach the horizon: the clock only ever sits on a
// processed event, which is what makes fixed-horizon advancement
// composable with Inject (a later injection at t < horizon is still in
// this sim's future).
//
// Once every query is terminal in a sealed run, remaining fault events
// are discarded without advancing the clock: the makespan (and the
// time-weighted histograms) end at the last query event, not at whatever
// outage the infinite stochastic stream scheduled next.
func (sm *sim) stepUntil(horizon float64) (bool, error) {
	if g := drainGen.Load(); g != sm.drainSeen {
		sm.drainSeen = g
		sm.applyDrainOutage(math.Float64frombits(drainDur.Load()))
	}
	for {
		hasArr := int(sm.nextArr) < len(sm.qs)
		if len(sm.evs) > 0 {
			at := sm.evs[0].at
			if (!hasArr || at < sm.qs[sm.nextArr].start) && (at < horizon || math.IsInf(horizon, 1)) {
				ev := sm.evs.pop()
				if (ev.kind == evLaneDown || ev.kind == evLaneUp) && sm.open == 0 && sm.sealed {
					continue
				}
				sm.advance(ev.at)
				Live.events.Add(1)
				var err error
				switch ev.kind {
				case evArrival:
					err = sm.onArrival(ev.q)
				case evPrefillDone:
					err = sm.onPrefillDone(ev.q, int(ev.rep))
				case evQuantumDone:
					err = sm.onQuantumDone(&ev)
				case evLaneDown:
					err = sm.onLaneDown(int(ev.rep), ev.until)
				case evLaneUp:
					err = sm.onLaneUp(int(ev.rep))
				}
				return true, err
			}
		}
		if hasArr && sm.qs[sm.nextArr].start < horizon {
			qi := sm.nextArr
			sm.nextArr++
			sm.advance(sm.qs[qi].start)
			Live.events.Add(1)
			return true, sm.onArrival(qi)
		}
		return false, nil
	}
}

// onArrival admits or rejects a query, then tries to start prefills.
// A rejected query with retry budget left re-arrives after a jittered
// exponential backoff instead of counting as Rejected.
func (sm *sim) onArrival(qi int32) error {
	q := &sm.qs[qi]
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
			sm.push(event{at: sm.now + sm.backoff(q.attempts), kind: evArrival, q: qi})
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
	if !q.resumed {
		sm.maybeCorrupt(q)
	}
	sm.inSystem++
	if sm.inSystem > sm.m.MaxQueueDepth {
		sm.m.MaxQueueDepth = sm.inSystem
	}
	sm.traceInstant("arrival", q)
	sm.traceDepth()
	if q.resumed {
		// A migrated query whose prefill already ran elsewhere skips the
		// SoC lane: its KV cache arrives with it (the handoff penalty was
		// charged at re-injection) and decode resumes where it left off.
		// The source sim recorded its TTFT at the original prefill; the
		// token clock restarts here so TBT/TTLT stay monotone.
		q.firstToken = sm.now
		q.prevToken = sm.now
		ri := int(qi) % len(sm.reps)
		sm.reps[ri].decodeQ.push(sm.qs, qi)
		return sm.dispatchDecode(ri)
	}
	sm.wait.push(sm.qs, qi)
	return sm.dispatchPrefills()
}

// expired reports whether q has outlived the hard timeout.
func (sm *sim) expired(q *query) bool {
	return sm.cfg.Timeout > 0 && sm.now-q.arrival > sm.cfg.Timeout
}

// abort drops a query at a scheduling boundary.
func (sm *sim) abort(q *query) {
	sm.m.TimedOut++
	Live.timedOut.Add(1)
	sm.inSystem--
	sm.open--
	sm.traceInstant("timeout", q)
	sm.traceDepth()
}

// dispatchPrefills starts waiting queries on every free SoC lane. In
// Serial mode a replica must be entirely idle (both lanes and no decode
// backlog) — the query owns the whole device.
func (sm *sim) dispatchPrefills() error {
	for !sm.wait.empty() {
		qi := sm.wait.head
		if sm.expired(&sm.qs[qi]) {
			sm.wait.pop(sm.qs)
			sm.abort(&sm.qs[qi])
			continue
		}
		ri := -1
		for i := range sm.reps {
			r := &sm.reps[i]
			if r.socBusy {
				continue
			}
			if sm.cfg.Mode == Serial && (r.pimBusy || !r.decodeQ.empty()) {
				continue
			}
			ri = i
			break
		}
		if ri < 0 {
			return nil
		}
		sm.wait.pop(sm.qs)
		if err := sm.startPrefill(qi, ri); err != nil {
			return err
		}
	}
	return nil
}

// startPrefill occupies the replica's SoC lane with q's prefill phase.
func (sm *sim) startPrefill(qi int32, ri int) error {
	q := &sm.qs[qi]
	r := &sm.reps[ri]
	switch sm.cfg.Mode {
	case Serial:
		// The whole query runs as one exclusive service interval, using
		// the design's own prefill routing (dynamic offload included) —
		// the closed-form TTFT/TTLT model.
		ttft, err := sm.sys.TTFT(sm.cfg.Kind, q.prefill)
		if err != nil {
			return err
		}
		ttlt, err := sm.sys.TTLT(sm.cfg.Kind, q.prefill, q.decode)
		if err != nil {
			return err
		}
		r.socBusy, r.pimBusy = true, true
		sm.busySoC++
		sm.busyPIM++
		sm.socBusySecs += ttlt
		sm.pimBusySecs += ttlt
		sm.traceSpan(ri, traceLaneSoC, "prefill", q, sm.now, ttft)
		sm.push(event{at: sm.now + ttft, kind: evPrefillDone, q: qi, rep: int32(ri)})
		return nil
	default:
		// Cooperative lanes: prefill takes the SoC route (the PIM lane
		// is decoding other queries on the same weights). The hybrid
		// baseline's TTFTStatic already charges the re-layout; the mode
		// additionally stalls the PIM lane for that window, because the
		// weights are being rewritten. Designs that pay no re-layout of
		// their own get it charged explicitly.
		pre, err := sm.ttftStatic(q.prefill)
		if err != nil {
			return err
		}
		// Thermal throttling slows the SoC's DRAM too (the refresh derate
		// is chip-wide); factor is exactly 1 with the fault layer off.
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
		sm.busySoC++
		sm.socBusySecs += pre
		sm.traceSpan(ri, traceLaneSoC, "prefill", q, sm.now, pre)
		sm.push(event{at: sm.now + pre, kind: evPrefillDone, q: qi, rep: int32(ri)})
		return nil
	}
}

// onPrefillDone emits the first token and hands the query to the decode
// lane (or completes it when there is nothing left to decode).
func (sm *sim) onPrefillDone(qi int32, ri int) error {
	q := &sm.qs[qi]
	r := &sm.reps[ri]
	q.firstToken = sm.now
	q.prevToken = sm.now
	ttft := sm.now - q.arrival
	sm.ttfts = append(sm.ttfts, ttft)
	sm.ttftSum += ttft
	if sm.cfg.Mode == Serial {
		// The device stays occupied; completion arrives as one quantum
		// covering every decode step.
		if q.decode <= 1 {
			return sm.completeSerial(q, ri)
		}
		dur, err := sm.quantumSeconds(q, q.decode-1)
		if err != nil {
			return err
		}
		sm.push(event{at: sm.now + dur, kind: evQuantumDone, q: qi, rep: int32(ri), steps: int32(q.decode - 1)})
		return nil
	}
	r.socBusy = false
	sm.busySoC--
	if q.decode <= 1 {
		sm.complete(q)
	} else if !q.corrupt || sm.onCorruptHandoff(q) {
		// The decode handoff is where a corrupted PTE MapID first hits
		// the MC frontend mux; onCorruptHandoff fails or repairs it.
		r.decodeQ.push(sm.qs, qi)
	}
	if err := sm.dispatchPrefills(); err != nil {
		return err
	}
	return sm.dispatchDecode(ri)
}

// quantumSeconds sums the next `steps` decode-step latencies of q under
// the configured design at nominal speed (the happy path).
func (sm *sim) quantumSeconds(q *query, steps int) (float64, error) {
	return sm.quantumSecondsKind(q, steps, sm.cfg.Kind, 1)
}

// quantumSecondsKind sums the next `steps` decode-step latencies of q
// under an explicit design (degraded quanta run at engine.SoCOnly
// latency) and thermal slowdown factor. Each step is scaled before
// summing so the quantum's internal token times match emitTokens; at
// factor 1 the products are bit-identical to the unscaled sum.
func (sm *sim) quantumSecondsKind(q *query, steps int, kind engine.Kind, factor float64) (float64, error) {
	var t float64
	for i := 0; i < steps; i++ {
		st, err := sm.stepSeconds(kind, q.prefill+q.stepsDone+i+1)
		if err != nil {
			return 0, err
		}
		t += st * factor
	}
	return t, nil
}

// emitTokens replays the token emission times of a finished quantum that
// started at `start`, recording the inter-token gaps. kind and factor
// must match the dispatch-time values so the replayed times land exactly
// on the quantum's end event.
func (sm *sim) emitTokens(q *query, start float64, steps int, kind engine.Kind, factor float64) error {
	t := start
	for i := 0; i < steps; i++ {
		st, err := sm.stepSeconds(kind, q.prefill+q.stepsDone+i+1)
		if err != nil {
			return err
		}
		t += st * factor
		if !sm.cfg.NoTBT {
			tbt := t - q.prevToken
			sm.tbts = append(sm.tbts, tbt)
			sm.tbtSum += tbt
		}
		q.prevToken = t
	}
	q.stepsDone += steps
	return nil
}

// dispatchDecode starts the next decode quantum on a replica's PIM lane
// (round-robin over its decode queue, DefaultPreemptSteps steps at a
// time). With the fault layer armed, a dead or breaker-guarded lane
// routes each queued query through the degradation policy instead.
func (sm *sim) dispatchDecode(ri int) error {
	r := &sm.reps[ri]
	for !r.pimBusy && !r.decodeQ.empty() {
		qi := r.decodeQ.pop(sm.qs)
		q := &sm.qs[qi]
		if sm.expired(q) {
			sm.abort(q)
			continue
		}
		if sm.flt != nil && !sm.acquirePIM(ri) {
			if err := sm.degrade(qi, ri); err != nil {
				return err
			}
			continue
		}
		steps := q.decode - 1 - q.stepsDone
		if steps > sm.cfg.preemptSteps {
			steps = sm.cfg.preemptSteps
		}
		// A relayout window may still hold the lane: the quantum is
		// reserved now and starts when the weights are back.
		start := sm.now
		if r.pimFreeAt > start {
			start = r.pimFreeAt
		}
		factor := sm.factorAt(start)
		dur, err := sm.quantumSecondsKind(q, steps, sm.cfg.Kind, factor)
		if err != nil {
			return err
		}
		// A one-shot penalty (failover migration, PTE repair) delays the
		// quantum without emitting tokens.
		penalty := q.penalty
		q.penalty = 0
		r.pimBusy = true
		sm.busyPIM++
		sm.pimBusySecs += penalty + dur
		if penalty > 0 {
			sm.traceSpan(ri, traceLanePIM, "fault-recovery", q, start, penalty)
		}
		sm.push(event{
			at: start + penalty + dur, kind: evQuantumDone, q: qi, rep: int32(ri),
			steps: int32(steps), dur: dur, factor: factor,
		})
	}
	if sm.flt != nil && sm.cfg.Policy != PolicyNone {
		return sm.dispatchSoCDecode(ri)
	}
	return nil
}

// onQuantumDone finishes one decode quantum: tokens are emitted, the
// query completes or rejoins the queue, and the lane picks its next
// quantum. The event carries the dispatch-time duration and thermal
// factor so the replay cannot drift if fault conditions changed
// mid-quantum.
func (sm *sim) onQuantumDone(e *event) error {
	q, ri, steps := &sm.qs[e.q], int(e.rep), int(e.steps)
	r := &sm.reps[ri]
	if sm.cfg.Mode == Serial {
		if err := sm.emitTokens(q, q.firstToken, steps, sm.cfg.Kind, 1); err != nil {
			return err
		}
		sm.traceSpan(ri, traceLanePIM, "decode", q, q.firstToken, sm.now-q.firstToken)
		return sm.completeSerial(q, ri)
	}
	kind, lane := sm.cfg.Kind, traceLanePIM
	if e.soc {
		kind, lane = engine.SoCOnly, traceLaneSoC
	}
	if err := sm.emitTokens(q, sm.now-e.dur, steps, kind, e.factor); err != nil {
		return err
	}
	sm.traceSpan(ri, lane, "decode", q, sm.now-e.dur, e.dur)
	if e.soc {
		r.socBusy = false
		sm.busySoC--
	} else {
		r.pimBusy = false
		sm.busyPIM--
	}
	if q.stepsDone >= q.decode-1 {
		sm.complete(q)
	} else {
		// Rejoin the replica's main decode queue: the next dispatch
		// re-decides the route, so a degraded query returns to the PIM
		// lane as soon as it recovers.
		r.decodeQ.push(sm.qs, e.q)
	}
	if e.soc {
		// The freed SoC lane goes to waiting prefills first.
		if err := sm.dispatchPrefills(); err != nil {
			return err
		}
	}
	return sm.dispatchDecode(ri)
}

// complete retires a cooperative-mode query.
func (sm *sim) complete(q *query) {
	sm.m.Completed++
	Live.completed.Add(1)
	sm.inSystem--
	sm.open--
	ttlt := q.prevToken - q.arrival
	sm.ttlts = append(sm.ttlts, ttlt)
	sm.ttltSum += ttlt
	if sm.cfg.DeadlineTTLT == 0 || ttlt <= sm.cfg.DeadlineTTLT {
		sm.m.SLOMet++
	}
	sm.traceInstant("complete", q)
	sm.traceDepth()
}

// completeSerial retires a serial-mode query and frees the whole device.
func (sm *sim) completeSerial(q *query, ri int) error {
	r := &sm.reps[ri]
	r.socBusy, r.pimBusy = false, false
	sm.busySoC--
	sm.busyPIM--
	sm.complete(q)
	return sm.dispatchPrefills()
}

// finish reduces the collected counters into the Metrics.
func (sm *sim) finish() Metrics {
	m := &sm.m
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
		// Lanes still down at the end contribute their elapsed outage but
		// not an MTTR sample (the repair never happened in-run). Summed
		// into a local, so finishing twice reports the same Metrics.
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
