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
	"sync/atomic"

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
	// Tracer, when enabled, records the run's structured timeline —
	// per-lane occupancy spans, queue-depth counters, admission/
	// rejection/completion instants and re-layout windows — in
	// trace-event form (see internal/obs). A nil tracer costs one pointer
	// test per instrumentation point and records nothing.
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
// query (round-robin). It is the engine's table-served quantum, so a
// full quantum's duration is one engine load.
const DefaultPreemptSteps = engine.DecodeQuantumSteps

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
	if v := c.DeadlineTTLT; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("serve: DeadlineTTLT must be a finite non-negative duration, got %g", v)
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
	// Admitted = Completed + Failed + Retracted (Failed is
	// zero without a fault scenario and Retracted is zero outside
	// host-driven migration, reducing to the pre-fault identities).
	// Each query counts once regardless of retries: Rejected counts
	// only queries whose retry budget ran out.
	Arrived, Admitted, Rejected int
	Completed                   int
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
	// (waiting + executing).
	QueueDepth stats.TimeHist
	// MaxQueueDepth is the deepest in-system backlog observed.
	MaxQueueDepth int
}

// query is one request flowing through the simulator. The optimized sim
// keeps its open queries in one slab of reusable slots and threads
// pending FIFOs (and the free-slot list) through the intrusive next
// link; the reference sim heap-allocates them and leaves next untouched.
type query struct {
	// id is the query's arrival ordinal in this sim, never its slot: it
	// labels trace events and picks a resumed query's replica.
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

	// Fault-layer state (zero on the happy path):
	attempts int     // client retries consumed so far
	penalty  float64 // one-shot delay before the next quantum (failover migration, PTE repair)
	corrupt  bool    // scenario corrupted the PTE MapID
	degraded bool    // counted in Metrics.Degraded already
	resumed  bool    // migrated in after prefill ran elsewhere: skip straight to decode

	// next is the intrusive pending-list link (-1 = none). A query sits
	// in at most one place at a time — the arrival FIFO, the admission
	// FIFO, one decode queue, one SoC fallback queue, or an in-flight
	// event — and a free slot only on the free list, so a single link
	// suffices.
	next int32
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

// sim is the run state of one event-driven simulation. It holds only
// the queries in flight: each open query owns one slot of the qs slab,
// and a terminal one returns its slot to a free list, so the slab never
// outgrows the peak count of open queries however long the run. The hot
// path is allocation-free in steady state: pending arrivals wait in a
// FIFO (they need no scheduling structure — the stream is in start
// order), dynamic events live in a value-typed min-heap that keeps its
// capacity, pending queries thread through intrusive qlists, and the
// per-token engine latencies are reads of the System's lock-free tables.
type sim struct {
	cfg SimConfig
	sys *engine.System
	evs eventQueue
	// seq numbers dynamic events FIFO among equal times. Arrivals are
	// not events: stepUntil takes the arrival FIFO's head on an exact
	// tie, so an arrival beats any queued event at the same instant.
	seq int64
	// qs is the query slab and free the head of its free-slot list,
	// linked through query.next (-1 = none). Slots are reused, so only
	// events and qlists name them; query.id keeps the arrival ordinal.
	qs   []query
	free int32
	// arr is the FIFO of appended arrivals not yet taken, ids counts
	// every appended arrival (the next query.id), and lastStart is the
	// newest one's start, which the next must not precede.
	arr       qlist
	ids       int
	lastStart float64
	// gen holds a generated run's arrivals (nil when host-fed) and
	// genNext the next one to enter the slab.
	gen     []genArrival
	genNext int
	reps    []replica
	wait    qlist   // admission FIFO feeding SoC lanes
	relay   float64 // per-handoff re-layout seconds (RelayoutHybrid)

	now      float64
	inSystem int
	lastT    float64 // previous state-change instant for QueueDepth
	// horizon is the bound of the stepUntil call in progress: no event
	// at or past it may be processed (+Inf bounds nothing).
	horizon float64

	// open counts queries not yet terminal (completed, rejected, failed
	// or retracted); once it reaches zero — and the arrival stream is
	// sealed — pending fault events are discarded without advancing the
	// clock, so an infinite stochastic fault stream cannot stretch the
	// makespan.
	open int
	// sealed is true once no further Inject can come: from NewSim for
	// a generated run, after Seal for a host-fed one. An unsealed idle
	// sim keeps its fault events pending, because the host may still
	// inject work they must affect.
	sealed bool

	// events and virtualNanos count the processed events and virtual
	// time, and published holds the counts publish last added to Live.
	events, virtualNanos int64
	published            [11]int64

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
// complete) on the queue track.
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
// exposed one step at a time, so a host can advance virtual time in
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
		free: -1,
		arr:  emptyQlist,
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
	// gap per query in arrival order, Seed+1 the token lengths — drawn
	// here into gen (24 bytes a query, beside the 16 of TTFT and TTLT
	// samples the run reserves), so the event loop pays no sampling. The
	// lengths also size the TBT buffer exactly. Each arrival enters the
	// slab through the path Inject uses one ahead of the clock (see
	// pull), and the run is sealed from the start.
	if cfg.Queries > 0 {
		lengths := workload.NewStream(cfg.Workload, cfg.Seed+1)
		gaps := rand.New(rand.NewSource(cfg.Seed))
		sm.gen = make([]genArrival, cfg.Queries)
		var clock float64
		tbtCap := 0
		for i := range sm.gen {
			q := lengths.Next()
			clock += gaps.ExpFloat64() / cfg.ArrivalRate
			sm.gen[i] = genArrival{at: clock, q: q}
			tbtCap += max(q.Decode-1, 0)
		}
		sm.ttfts, sm.ttlts = make([]float64, 0, cfg.Queries), make([]float64, 0, cfg.Queries)
		if !cfg.NoTBT {
			sm.tbts = make([]float64, 0, tbtCap)
		}
		if err := sm.pull(); err != nil {
			return nil, err
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

// Step processes the next pending event and reports whether one was
// processed. A step that ends a decode quantum on an otherwise
// uncontended PIM lane also runs that query's following quanta in place,
// each counted as its own event, for as long as none of them can end at
// or after anything else pending (see onQuantumDone): it may cover
// several quantum ends, and the clock lands on the last. On an error
// the simulation is poisoned: discard the Sim (partial metrics are
// meaningless).
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
	s.sm.publish()
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

// appendArrival is the one path onto the arrival stream: it rejects
// a start time that is not finite, behind the clock or before the last
// arrival, then puts q in a free slab slot (growing the slab only when
// none is free) and queues it as the newest open query, numbered by
// arrival. op names the caller in errors.
func (sm *sim) appendArrival(op string, q query) error {
	at := q.start
	if math.IsNaN(at) || math.IsInf(at, 0) || at < sm.now {
		return fmt.Errorf("serve: %s at %g behind the clock %g", op, at, sm.now)
	}
	if at < sm.lastStart {
		return fmt.Errorf("serve: %s arrivals must be time-ordered (%g after %g)", op, at, sm.lastStart)
	}
	q.id = sm.ids
	qs, qi := sm.qs, sm.free
	if qi >= 0 {
		sm.free = qs[qi].next
		qs[qi] = q
	} else {
		qi = int32(len(qs))
		qs = append(qs, q)
		sm.qs = qs
	}
	sm.arr.push(qs, qi)
	sm.ids++
	sm.lastStart = at
	sm.open++
	return nil
}

// release retires a terminal query at one of the four points where a
// query leaves for good (complete, reject, failQuery, retract): it
// stops counting as open and its slot goes onto the free list. No
// event or qlist names the slot by then.
func (sm *sim) release(qi int32) {
	sm.open--
	sm.qs[qi].next = sm.free
	sm.free = qi
}

// genArrival is one arrival of a generated run: its time and lengths.
type genArrival struct {
	at float64
	q  workload.Query
}

// pull appends a generated run's next arrival, if one is left. NewSim
// pulls the first and stepUntil the next as it takes each arrival, so
// exactly one generated arrival is pending until the run's last: the
// merge and nextBoundary see it as they would a whole stream's head.
func (sm *sim) pull() error {
	if sm.genNext == len(sm.gen) {
		return nil
	}
	a := &sm.gen[sm.genNext]
	sm.genNext++
	return sm.appendArrival("NewSim", query{arrival: a.at, start: a.at, prefill: a.q.Prefill, decode: a.q.Decode})
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
// terminal outcomes — the per-device health signal a fleet router reads
// at each telemetry barrier. All counts are cumulative since
// construction; deltas between probes are the barrier-interval signal.
type Probe struct {
	// Completed, Failed and Rejected are the terminal outcomes so far:
	// their sum retires queries from the router's in-flight ledger, and
	// Failed and Completed drive its health breaker.
	Completed, Failed, Rejected int
}

// Probe snapshots the sim's terminal counters. Like every Sim method it
// must not race with Step or AdvanceTo (the cluster router probes each
// device right after advancing it to a barrier).
func (s *Sim) Probe() Probe {
	m := &s.sm.m
	return Probe{Completed: m.Completed, Failed: m.Failed, Rejected: m.Rejected}
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
	sm.inSystem--
	sm.traceInstant("retract", q)
	sm.traceDepth()
	r := Retracted{
		Arrival: q.arrival, Prefill: q.prefill, Decode: q.decode,
		StepsDone: q.stepsDone, Prefilled: prefilled,
	}
	sm.release(qi)
	return r
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

// publish adds the sim's counts since its previous publish to Live, so
// the process-wide counters follow a run without an atomic add per
// transition: advance publishes every 1024 events, Counters at the end.
func (sm *sim) publish() {
	m := &sm.m
	now := [...]int64{sm.events, sm.virtualNanos, int64(m.Arrived), int64(m.Admitted),
		int64(m.Rejected), int64(m.Retries), int64(m.Completed),
		int64(m.Failed), int64(m.Retracted), int64(m.Degraded), int64(m.FailedOver)}
	for i, c := range [...]*atomic.Int64{&Live.events, &Live.virtualNanos, &Live.arrived, &Live.admitted,
		&Live.rejected, &Live.retries, &Live.completed,
		&Live.failed, &Live.retracted, &Live.degraded, &Live.failedOver} {
		c.Add(now[i] - sm.published[i])
	}
	sm.published = now
}

// advance moves the clock to t for one processed event, charging the
// elapsed interval to QueueDepth at the depth held since the last
// change, and counts the event, publishing every 1024th. Every clock
// movement funnels through here — arrivals and queued events — so
// QueueDepth and the Live odometer cannot disagree about elapsed
// virtual time.
func (sm *sim) advance(t float64) {
	if dt := t - sm.lastT; dt > 0 {
		sm.m.QueueDepth.Add(float64(sm.inSystem), dt)
		sm.lastT = t
		sm.virtualNanos += int64(dt * 1e9)
	}
	sm.now = t
	if sm.events++; sm.events%1024 == 0 {
		sm.publish()
	}
}

// step processes the next pending event with no horizon — the whole-run
// event loop. The merge logic lives in stepUntil; at an infinite horizon
// the limit reduces to the bare arrival FIFO, so this is bit-identical
// to the pre-horizon loop.
func (sm *sim) step() (bool, error) {
	return sm.stepUntil(math.Inf(1))
}

// stepUntil merges the arrival FIFO against the event heap, pops the
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
// are discarded without advancing the clock: the makespan (and
// QueueDepth) end at the last query event, not at whatever
// outage the infinite stochastic stream scheduled next.
func (sm *sim) stepUntil(horizon float64) (bool, error) {
	if g := drainGen.Load(); g != sm.drainSeen {
		sm.drainSeen = g
		sm.applyDrainOutage(math.Float64frombits(drainDur.Load()))
	}
	sm.horizon = horizon
	for {
		hasArr := !sm.arr.empty()
		if len(sm.evs) > 0 {
			at := sm.evs[0].at
			if (!hasArr || at < sm.qs[sm.arr.head].start) && (at < horizon || math.IsInf(horizon, 1)) {
				ev := sm.evs.pop()
				if (ev.kind == evLaneDown || ev.kind == evLaneUp) && sm.open == 0 && sm.sealed {
					continue
				}
				sm.advance(ev.at)
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
		if hasArr && sm.qs[sm.arr.head].start < horizon {
			qi := sm.arr.pop(sm.qs)
			sm.advance(sm.qs[qi].start)
			if err := sm.pull(); err != nil {
				return true, err
			}
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
	}
	if sm.cfg.QueueCap > 0 && sm.inSystem >= sm.cfg.QueueCap {
		if sm.cfg.MaxRetries > 0 && q.attempts < sm.cfg.MaxRetries {
			q.attempts++
			sm.m.Retries++
			sm.traceInstant("retry", q)
			sm.push(event{at: sm.now + sm.backoff(q.attempts), kind: evArrival, q: qi})
			return nil
		}
		sm.m.Rejected++
		sm.traceInstant("reject", q)
		sm.release(qi)
		return nil
	}
	sm.m.Admitted++
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
		ri := q.id % len(sm.reps)
		sm.reps[ri].decodeQ.push(sm.qs, qi)
		return sm.dispatchDecode(ri)
	}
	sm.wait.push(sm.qs, qi)
	return sm.dispatchPrefills()
}

// dispatchPrefills starts waiting queries on every free SoC lane. In
// Serial mode a replica must be entirely idle (both lanes and no decode
// backlog) — the query owns the whole device.
func (sm *sim) dispatchPrefills() error {
	for !sm.wait.empty() {
		qi := sm.wait.head
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
		pre, err := sm.sys.TTFTStatic(sm.cfg.Kind, q.prefill)
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
			return sm.completeSerial(qi, ri)
		}
		dur, err := sm.sys.DecodeQuantumSeconds(sm.cfg.Kind, q.prefill+q.stepsDone+1, q.decode-1, 1)
		if err != nil {
			return err
		}
		sm.push(event{at: sm.now + dur, kind: evQuantumDone, q: qi, rep: int32(ri), steps: int32(q.decode - 1)})
		return nil
	}
	r.socBusy = false
	if q.decode <= 1 {
		sm.complete(qi)
	} else if !q.corrupt || sm.onCorruptHandoff(qi) {
		// The decode handoff is where a corrupted PTE MapID first hits
		// the MC frontend mux; onCorruptHandoff fails or repairs it.
		r.decodeQ.push(sm.qs, qi)
	}
	if err := sm.dispatchPrefills(); err != nil {
		return err
	}
	return sm.dispatchDecode(ri)
}

// emitTokens replays the token emission times of a finished quantum that
// started at `start`, recording the inter-token gaps. kind and factor
// must match the dispatch-time values so the replayed times land exactly
// on the quantum's end event. Under NoTBT the token times feed only the
// final quantum's TTLT, and each quantum restarts from its own start, so
// a non-final quantum only advances the step count.
func (sm *sim) emitTokens(q *query, start float64, steps int, kind engine.Kind, factor float64) error {
	if sm.cfg.NoTBT && q.stepsDone+steps < q.decode-1 {
		q.stepsDone += steps
		return nil
	}
	// The walk runs on locals and stores once: the same operations in
	// the same order as updating the sim per token, without reloading
	// its fields after every store.
	t, ctx, keep := start, q.prefill+q.stepsDone+1, !sm.cfg.NoTBT
	prev, tbts, sum := q.prevToken, sm.tbts, sm.tbtSum
	for i := 0; i < steps; i++ {
		st, err := sm.sys.DecodeStepSeconds(kind, ctx+i)
		if err != nil {
			return err
		}
		t += st * factor
		if keep {
			tbt := t - prev
			tbts = append(tbts, tbt)
			sum += tbt
		}
		prev = t
	}
	q.prevToken, sm.tbts, sm.tbtSum = prev, tbts, sum
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
		if sm.flt != nil && !sm.acquirePIM(ri) {
			if err := sm.degrade(qi, ri); err != nil {
				return err
			}
			continue
		}
		// A relayout window may still hold the lane: the quantum is
		// reserved now and starts when the weights are back.
		if err := sm.startQuantum(qi, ri, traceLanePIM, max(sm.now, r.pimFreeAt)); err != nil {
			return err
		}
	}
	if sm.flt != nil && sm.cfg.Policy != PolicyNone {
		return sm.dispatchSoCDecode(ri)
	}
	return nil
}

// startQuantum starts query qi's next decode quantum on replica ri's
// lane at start and queues its evQuantumDone (see quantum).
func (sm *sim) startQuantum(qi int32, ri int, lane int64, start float64) error {
	ev, err := sm.quantum(qi, ri, lane, start)
	if err != nil {
		return err
	}
	sm.push(ev)
	return nil
}

// quantum begins query qi's next decode quantum (at most preemptSteps
// steps) on replica ri's lane at start: on the PIM lane at the
// configured design's latency, or on the SoC lane (traceLaneSoC) at
// engine.SoCOnly latency for a degraded query. It marks the lane busy,
// charges its busy time and returns the quantum's evQuantumDone, which
// carries the dispatch-time duration and thermal factor, for the caller
// to queue or (onQuantumDone's in-place run) to process at once.
func (sm *sim) quantum(qi int32, ri int, lane int64, start float64) (event, error) {
	r, q := &sm.reps[ri], &sm.qs[qi]
	soc := lane == traceLaneSoC
	kind := sm.cfg.Kind
	if soc {
		kind = engine.SoCOnly
	}
	steps := min(q.decode-1-q.stepsDone, sm.cfg.preemptSteps)
	factor := sm.factorAt(start)
	// Each step is scaled before summing, as emitTokens replays them.
	dur, err := sm.sys.DecodeQuantumSeconds(kind, q.prefill+q.stepsDone+1, steps, factor)
	if err != nil {
		return event{}, err
	}
	// A one-shot penalty (failover migration, PTE repair, cross-device
	// handoff) delays the quantum without emitting tokens.
	penalty := q.penalty
	q.penalty = 0
	if soc {
		r.socBusy = true
		sm.socBusySecs += penalty + dur
	} else {
		r.pimBusy = true
		sm.pimBusySecs += penalty + dur
	}
	if penalty > 0 {
		sm.traceSpan(ri, lane, "fault-recovery", q, start, penalty)
	}
	return event{
		at: start + penalty + dur, kind: evQuantumDone, q: qi, rep: int32(ri),
		steps: int32(steps), dur: dur, factor: factor, soc: soc,
	}, nil
}

// onQuantumDone finishes one decode quantum: tokens are emitted, the
// query completes or rejoins the queue, and the lane picks its next
// quantum. The event carries the dispatch-time duration and thermal
// factor so the replay cannot drift if fault conditions changed
// mid-quantum.
//
// When the next quantum would go straight back to the same query on a
// PIM lane no one else wants (chainable), and would end strictly before
// anything else pending (nextBoundary), nothing can happen in between:
// the quantum is begun, its end processed in place — advance, tokens,
// span, as if popped from the heap — and the loop repeats. The unfused
// path's queue round trip and heap push are all it skips, so every
// count, sample and trace record keeps its bits.
func (sm *sim) onQuantumDone(e *event) error {
	q, ri, steps := &sm.qs[e.q], int(e.rep), int(e.steps)
	r := &sm.reps[ri]
	if sm.cfg.Mode == Serial {
		if err := sm.emitTokens(q, q.firstToken, steps, sm.cfg.Kind, 1); err != nil {
			return err
		}
		sm.traceSpan(ri, traceLanePIM, "decode", q, q.firstToken, sm.now-q.firstToken)
		return sm.completeSerial(e.q, ri)
	}
	kind, lane := sm.cfg.Kind, traceLanePIM
	if e.soc {
		kind, lane = engine.SoCOnly, traceLaneSoC
	}
	dur, factor := e.dur, e.factor
	for {
		if err := sm.emitTokens(q, sm.now-dur, steps, kind, factor); err != nil {
			return err
		}
		sm.traceSpan(ri, lane, "decode", q, sm.now-dur, dur)
		if e.soc {
			r.socBusy = false
		} else {
			r.pimBusy = false
		}
		if q.stepsDone >= q.decode-1 {
			sm.complete(e.q)
			break
		}
		if e.soc || !sm.chainable(q, ri) {
			// Rejoin the replica's main decode queue: the next dispatch
			// re-decides the route, so a degraded query returns to the
			// PIM lane as soon as it recovers.
			r.decodeQ.push(sm.qs, e.q)
			break
		}
		// dispatchDecode would pop q straight back onto the lane: the
		// same acquirePIM bookkeeping, then its next quantum at now.
		if sm.flt != nil {
			sm.acquirePIM(ri)
		}
		next, err := sm.quantum(e.q, ri, traceLanePIM, sm.now)
		if err != nil {
			return err
		}
		if !(next.at < sm.nextBoundary()) {
			sm.push(next)
			break
		}
		sm.advance(next.at)
		steps, dur, factor = int(next.steps), next.dur, next.factor
	}
	if e.soc {
		// The freed SoC lane goes to waiting prefills first.
		if err := sm.dispatchPrefills(); err != nil {
			return err
		}
	}
	return sm.dispatchDecode(ri)
}

// chainable reports whether dispatchDecode, run now on replica ri
// after q's PIM quantum ended, would do nothing but start q's next
// quantum at now with no penalty: no other query waits for the lane,
// no relayout window holds the lane, no drain outage is pending, and
// with the fault layer armed the lane is up, its breaker closed, and
// the SoC fallback queue has nothing to start.
func (sm *sim) chainable(q *query, ri int) bool {
	r := &sm.reps[ri]
	if !r.decodeQ.empty() || q.penalty != 0 || r.pimFreeAt > sm.now || drainGen.Load() != sm.drainSeen {
		return false
	}
	return sm.flt == nil || (!r.pimDown && r.brk.state == brkClosed && (r.socQ.empty() || r.socBusy))
}

// nextBoundary returns the earliest instant at which anything other
// than a running quantum can happen: the earliest pending event, the
// next arrival, or the stepUntil horizon. Only a quantum ending strictly
// before it is certainly the next event: on an exact tie the older event
// (lower seq) and the arrival go first.
func (sm *sim) nextBoundary() float64 {
	b := sm.horizon
	if len(sm.evs) > 0 && sm.evs[0].at < b {
		b = sm.evs[0].at
	}
	if !sm.arr.empty() && sm.qs[sm.arr.head].start < b {
		b = sm.qs[sm.arr.head].start
	}
	return b
}

// complete retires a cooperative-mode query.
func (sm *sim) complete(qi int32) {
	q := &sm.qs[qi]
	sm.m.Completed++
	sm.inSystem--
	ttlt := q.prevToken - q.arrival
	sm.ttlts = append(sm.ttlts, ttlt)
	sm.ttltSum += ttlt
	if sm.cfg.DeadlineTTLT == 0 || ttlt <= sm.cfg.DeadlineTTLT {
		sm.m.SLOMet++
	}
	sm.traceInstant("complete", q)
	sm.traceDepth()
	sm.release(qi)
}

// completeSerial retires a serial-mode query and frees the whole device.
func (sm *sim) completeSerial(qi int32, ri int) error {
	r := &sm.reps[ri]
	r.socBusy, r.pimBusy = false, false
	sm.complete(qi)
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
