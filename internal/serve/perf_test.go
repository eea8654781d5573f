package serve

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"

	"facil/internal/engine"
	"facil/internal/fault"
	"facil/internal/obs"
	"facil/internal/stats"
	"facil/internal/workload"
)

// selectionSpeedupBar is TestQuantileSelectionSpeedup's bar.
const selectionSpeedupBar = 3.0

// perfConfig is the steady-state measurement scenario: heavy sustained
// load on a bounded queue (so the backlog pins at the cap during
// warmup), a fixed-length workload (so the flat latency caches fill
// early), no faults, no retries, no tracer.
func perfConfig(queries int) SimConfig {
	return SimConfig{
		Mode:        Cooperative,
		Kind:        engine.FACIL,
		Replicas:    2,
		ArrivalRate: 50,
		Queries:     queries,
		Workload:    fixedSpec(256, 64),
		Seed:        42,
		QueueCap:    16,
	}
}

// drainSim steps a Sim to exhaustion and returns its Metrics.
func drainSim(tb testing.TB, sim *Sim) Metrics {
	for {
		more, err := sim.Step()
		if err != nil {
			tb.Fatal(err)
		}
		if !more {
			return sim.Finish()
		}
	}
}

// TestServeSteadyStateZeroAllocs is the allocation regression gate on
// the serving loop: after warmup (event-heap capacity, flat latency
// caches and the engine's memoized caches all grown),
// stepping the simulation must not allocate at all.
func TestServeSteadyStateZeroAllocs(t *testing.T) {
	s := servingSystem(t)
	cfg := perfConfig(4000)
	// Probe run: learn the total event count (it depends on the
	// admission mix) and warm the engine's process-wide latency caches.
	probe, err := NewSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		more, err := probe.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		total++
	}
	probe.Finish()
	// Measured run: warm the first half, then require the tail to step
	// allocation-free. AllocsPerRun invokes the closure runs+1 times.
	sim, err := NewSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := total / 2
	for i := 0; i < warm; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 10
	chunk := (total - warm) / (runs + 2)
	if chunk < 100 {
		t.Fatalf("only %d events to measure over; grow the query count", total-warm)
	}
	exhausted := false
	var stepErr error
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < chunk; i++ {
			more, err := sim.Step()
			if err != nil {
				stepErr = err
				return
			}
			if !more {
				exhausted = true
				return
			}
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if exhausted {
		t.Fatal("simulation drained during measurement; grow the query count")
	}
	if avg != 0 {
		t.Fatalf("steady-state stepping allocates %.1f times per %d events, want 0", avg, chunk)
	}
}

// TestNoTBTSkipsSampleBuffer pins that a generated NoTBT sim reserves no
// TBT sample buffer, while the same run with TBT samples reserves one
// per decode gap.
func TestNoTBTSkipsSampleBuffer(t *testing.T) {
	s := servingSystem(t)
	for _, noTBT := range []bool{true, false} {
		cfg := perfConfig(100)
		cfg.NoTBT = noTBT
		sim, err := NewSim(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, want := cap(sim.sm.tbts), 100*63
		if noTBT {
			want = 0
		}
		if got != want {
			t.Errorf("NoTBT=%v: tbts capacity %d, want %d", noTBT, got, want)
		}
		drainSim(t, sim)
	}
}

// TestFinishQuantilesZeroAllocs gates Finish's quantiles at zero
// allocations: on a drained sim, and again after the first Finish has
// reordered the sample buffers, Finish allocates no more than Counters,
// which reads every other field.
func TestFinishQuantilesZeroAllocs(t *testing.T) {
	sim, err := NewSim(servingSystem(t), perfConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	drainSim(t, sim)
	if m := sim.Counters(); m.Completed == 0 || len(sim.sm.tbts) == 0 {
		t.Fatalf("no samples to summarize: %+v", m)
	}
	counters := testing.AllocsPerRun(20, func() { sim.Counters() })
	if finish := testing.AllocsPerRun(20, func() { sim.Finish() }); finish > counters {
		t.Errorf("Finish allocates %v times per call, Counters %v: the quantiles allocate", finish, counters)
	}
}

// serving2TBTSample returns the TBT sample of one serving2-sized sim,
// the facild smoke scenario's cell: 2000 Alpaca queries at 1 q/s on two
// cooperative replicas behind a 64-query queue. It holds about 1.6e5
// per-token gaps with few distinct values.
func serving2TBTSample(t *testing.T) []float64 {
	sim, err := NewSim(servingSystem(t), SimConfig{
		Mode: Cooperative, Kind: engine.FACIL, Replicas: 2, ArrivalRate: 1,
		Queries: 2000, Workload: workload.AlpacaSpec(), Seed: 11, QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceTo(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), sim.sm.tbts...)
}

// TestQuantileSelectionSpeedup gates Finish's in-place selection
// against the frozen sort oracle (sortQuantiles, a sorted copy as
// Finish took before) on a serving2-sized TBT sample: the median of
// paired ratios over interleaved rounds, as in TestOptimizedSimSpeedup.
// Resetting the selection's buffer to the sample's append order is not
// timed; the oracle's copy is, since Finish paid for it.
func TestQuantileSelectionSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const rounds, reps = 7, 20
	sample := serving2TBTSample(t)
	sum := stats.Sum(sample)
	buf := make([]float64, len(sample))
	sel := func() time.Duration {
		var total time.Duration
		for i := 0; i < reps; i++ {
			copy(buf, sample)
			start := time.Now()
			stats.QuantilesInPlace(buf, sum)
			total += time.Since(start)
		}
		return total
	}
	ref := func() time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			sortQuantiles(sample)
		}
		return time.Since(start)
	}
	copy(buf, sample)
	if got, want := stats.QuantilesInPlace(buf, sum), sortQuantiles(sample); got != want {
		t.Fatalf("selection %+v, sort oracle %+v", got, want)
	}
	ratios := make([]float64, rounds)
	for r := range ratios {
		var selD, refD time.Duration
		if r%2 == 0 {
			selD, refD = sel(), ref()
		} else {
			refD, selD = ref(), sel()
		}
		ratios[r] = float64(refD) / float64(selD)
	}
	sort.Float64s(ratios)
	t.Logf("%d TBT samples: paired sort/selection ratios %.1f", len(sample), ratios)
	if med := ratios[rounds/2]; med < selectionSpeedupBar {
		t.Errorf("selection only %.1fx faster than the sorted copy (median of %d paired rounds), want >= %gx", med, rounds, selectionSpeedupBar)
	}
}

// TestOptimizedSimSpeedup gates the perf win of the value-typed event
// loop: a full simulation run must beat the retained pointer-boxed
// reference engine by at least 3x (the acceptance bar). One wall-clock
// sample per engine is too noisy on a shared 2-core runner to hold a
// bar about 10-30% below the typical ratio, so the gate takes the
// median of paired ratios over interleaved rounds: each round times a
// batch of runs on both engines back to back, alternating which goes
// first.
func TestOptimizedSimSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const rounds, reps = 7, 10
	s := servingSystem(t)
	cfg := perfConfig(2000)
	type engineRun func() (step func() (bool, error), finish func() Metrics)
	opt := func() (func() (bool, error), func() Metrics) {
		sim, err := NewSim(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Step, sim.Finish
	}
	ref := func() (func() (bool, error), func() Metrics) {
		sim, err := NewReferenceSim(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Step, sim.Finish
	}
	// batch times reps runs of one engine. Only the event loop and
	// Finish are timed: construction (workload sampling, slab setup) is
	// identical work for both engines and would dilute the ratio the
	// gate is about.
	batch := func(construct engineRun) time.Duration {
		var total time.Duration
		for i := 0; i < reps; i++ {
			step, finish := construct()
			start := time.Now()
			for {
				more, err := step()
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
			}
			finish()
			total += time.Since(start)
		}
		return total
	}
	batch(opt) // warm the shared latency caches
	batch(ref)
	ratios := make([]float64, rounds)
	for r := range ratios {
		var optD, refD time.Duration
		if r%2 == 0 {
			optD, refD = batch(opt), batch(ref)
		} else {
			refD, optD = batch(ref), batch(opt)
		}
		ratios[r] = float64(refD) / float64(optD)
	}
	sort.Float64s(ratios)
	t.Logf("paired ref/opt ratios %.2f", ratios)
	if med := ratios[rounds/2]; med < 3 {
		t.Errorf("optimized sim only %.2fx faster than reference (median of %d paired rounds), want >= 3x", med, rounds)
	}
}

// BenchmarkSimDrain measures the optimized serving loop end to end —
// construction, every event, Finish — reporting per-query cost and
// simulated queries per wall-clock second (the ROADMAP's fleet-sweep
// currency; the acceptance target is >= 1e5 queries/sec single-core).
func BenchmarkSimDrain(b *testing.B) {
	s := servingSystem(b)
	cfg := perfConfig(2000)
	if _, err := Run(s, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		drainSim(b, sim)
	}
	b.StopTimer()
	perQuery := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(cfg.Queries)
	b.ReportMetric(perQuery, "ns/query")
	b.ReportMetric(1e9/perQuery, "queries/sec")
}

// BenchmarkReferenceSimDrain is BenchmarkSimDrain on the retained heap
// engine — the denominator of the speedup the rebuild buys.
func BenchmarkReferenceSimDrain(b *testing.B) {
	s := servingSystem(b)
	cfg := perfConfig(2000)
	if _, err := ReferenceRun(s, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewReferenceSim(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for {
			more, err := sim.Step()
			if err != nil {
				b.Fatal(err)
			}
			if !more {
				break
			}
		}
		sim.Finish()
	}
	b.StopTimer()
	perQuery := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(cfg.Queries)
	b.ReportMetric(perQuery, "ns/query")
	b.ReportMetric(1e9/perQuery, "queries/sec")
}

// traceBytes runs one simulation with a fresh tracer attached and
// returns the serialized Chrome-trace JSON.
func traceBytes(t *testing.T, run func(SimConfig), cfg SimConfig) []byte {
	t.Helper()
	tr := obs.New(1 << 16)
	cfg.Tracer = tr
	run(cfg)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSteppedTraceMatchesOneShot pins the tracer-aliasing fix: driving a
// traced simulation one Step at a time must produce byte-identical
// Chrome-trace output to the one-shot Run — a recycled event slot must
// never leak stale state into an instrumentation callback. (See also
// TestDifferentialTrace for optimized-vs-reference trace identity.)
func TestSteppedTraceMatchesOneShot(t *testing.T) {
	s := servingSystem(t)
	base := traceConfig(Cooperative)
	base.MaxRetries = 2
	oneShot := traceBytes(t, func(cfg SimConfig) {
		if _, err := Run(s, cfg); err != nil {
			t.Fatal(err)
		}
	}, base)
	stepped := traceBytes(t, func(cfg SimConfig) {
		sim, err := NewSim(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		drainSim(t, sim)
	}, base)
	if !bytes.Equal(oneShot, stepped) {
		t.Errorf("stepped trace diverges from one-shot: %d vs %d bytes", len(stepped), len(oneShot))
	}
}

// fleetDeviceConfig is one fleet device as the cluster router builds it
// (one replica, NoTBT, bounded queue, SoC fallback behind a breaker,
// stochastic lane faults) at the fleet's per-device rate.
func fleetDeviceConfig() SimConfig {
	return SimConfig{
		Mode: Cooperative, Kind: engine.FACIL, Replicas: 1, ArrivalRate: 0.25,
		Queries: 2000, Workload: workload.AlpacaSpec(), Seed: 11, NoTBT: true,
		QueueCap: 16, DeadlineTTLT: 30, Policy: PolicySoCFallback, BreakerThreshold: 3,
		Faults: fault.Scenario{Seed: 99, LaneMTBF: 900, LaneMTTR: 30},
	}
}

// The exact work of fleetDeviceConfig's run, fed at 5 s barriers: the
// events the optimized sim processes (the reference processes the same
// events), its heap pushes, and the reference's pushes (one per arrival
// plus one per event the loop schedules, every quantum included).
const (
	fleetDeviceEvents    = 25279
	fleetDevicePushes    = 11403
	fleetDeviceRefPushes = 25280
)

// TestFleetDeviceWorkCounts is the serve layer's exact work gate: on
// any machine the fleet-like device run must process exactly the
// reference's events and make exactly the committed number of heap
// pushes, at most 0.6x the reference's, because uncontended decode
// quanta run in place. A change that fuses less, or processes one event
// more, fails it.
func TestFleetDeviceWorkCounts(t *testing.T) {
	s := servingSystem(t)
	cfg := fleetDeviceConfig()
	ref, err := NewReferenceSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refEvents int64
	for {
		more, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		refEvents++
	}
	opt := barrierRun(t, s, cfg, 5, nil)
	events, pushes, refPushes := opt.sm.events, opt.sm.seq, ref.sm.seq
	per := func(n int64) float64 { return float64(n) / float64(cfg.Queries) }
	t.Logf("per query: %.3f events (reference %.3f), %.3f heap pushes (reference %.3f, ratio %.3f)",
		per(events), per(refEvents), per(pushes), per(refPushes), float64(pushes)/float64(refPushes))
	if events != refEvents || events != fleetDeviceEvents {
		t.Errorf("processed %d events, reference %d, committed %d", events, refEvents, fleetDeviceEvents)
	}
	if pushes != fleetDevicePushes || refPushes != fleetDeviceRefPushes {
		t.Errorf("made %d heap pushes (committed %d), reference %d (committed %d)",
			pushes, fleetDevicePushes, refPushes, fleetDeviceRefPushes)
	}
	if float64(pushes) > 0.6*float64(refPushes) {
		t.Errorf("%d heap pushes exceed 0.6x the reference's %d", pushes, refPushes)
	}
	if m := opt.Counters(); m.LaneFailures == 0 || m.Degraded == 0 {
		t.Errorf("the run took %d lane failures and %d degraded queries; the gate needs both", m.LaneFailures, m.Degraded)
	}
}

// fleetDeviceSlabPeak is the slab high-water mark of fleetDeviceConfig
// fed slabGateQueries arrivals at 5 s barriers: the peak count of open
// queries, injected ahead of the clock included.
const (
	slabGateQueries     = 100_000
	fleetDeviceSlabPeak = 20
)

// TestSlabHoldsOnlyOpenQueries is the exact bound on the query slab.
// A fleet-like device fed 1e5 queries at barriers must end with a slab
// exactly as large as its peak count of open queries (each open query
// owns one slot, and a terminal one frees its slot for the next
// arrival), with every slot back on the free list after the drain. A
// two-replica device then takes fresh and resumed arrivals and reaches
// all five terminal points (completion, timeout, rejection, failure and
// retraction), with slots reused out of arrival order: the same bound
// holds, and every resumed query must decode on replica id mod 2,
// picked by its arrival ordinal, never by its slot.
func TestSlabHoldsOnlyOpenQueries(t *testing.T) {
	s := servingSystem(t)
	cfg := fleetDeviceConfig()
	cfg.Queries = slabGateQueries
	peak := 0
	sim := barrierRun(t, s, cfg, 5, func(sim *Sim) { peak = max(peak, sim.sm.open) })
	checkSlab(t, sim, peak, cfg.Queries)
	if len(sim.sm.qs) != fleetDeviceSlabPeak {
		t.Errorf("slab high-water mark %d, committed %d", len(sim.sm.qs), fleetDeviceSlabPeak)
	}

	tr := obs.New(1 << 16)
	rcfg := streamConfig(2, 6)
	rcfg.Tracer, rcfg.Timeout = tr, 2
	rcfg.Faults = fault.Scenario{Seed: 5, LaneMTBF: 60, LaneMTTR: 4}
	rs, err := NewSim(s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := map[int]bool{}
	peak, id := 0, 0
	for b := 1; b <= 200; b++ {
		// Every tenth barrier brings a burst of long prompts that
		// overflows the queue and outwaits the timeout.
		at, n, pre := float64(b), 2, 32
		if b%10 == 0 {
			n, pre = 12, 1024
		}
		for k := 0; k < n; k++ {
			if err := rs.Inject(at, pre+8*k, 4+4*(b%3)); err != nil {
				t.Fatal(err)
			}
			id++
			peak = max(peak, rs.sm.open)
		}
		if b%2 == 0 {
			r := Retracted{Arrival: at - 0.5, Prefill: 48, Decode: 12, StepsDone: b % 5, Prefilled: true}
			if err := rs.InjectResume(at, r, 0.001); err != nil {
				t.Fatal(err)
			}
			resumed[id] = true
			id++
			peak = max(peak, rs.sm.open)
		}
		if err := rs.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		if b%7 == 0 {
			rs.Retract()
		}
	}
	rs.Seal()
	if err := rs.AdvanceTo(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	checkSlab(t, rs, peak, id)
	if m := rs.Counters(); m.Completed == 0 || m.Rejected == 0 || m.TimedOut == 0 || m.Failed == 0 || m.Retracted == 0 {
		t.Errorf("two-replica run must reach all five terminal points: %+v", m)
	}
	t.Logf("slab high-water marks: %d slots for %d fleet-device arrivals, %d for %d two-replica arrivals (%d resumed)", len(sim.sm.qs), cfg.Queries, len(rs.sm.qs), id, len(resumed))
	if len(rs.sm.qs) >= id/4 {
		t.Errorf("two-replica slab holds %d slots for %d arrivals: too little reuse to test the replica choice", len(rs.sm.qs), id)
	}
	decodes := 0
	for _, e := range tr.Snapshot() {
		if q := int(e.Arg); e.Name == "decode" && resumed[q] {
			decodes++
			if ri := int(e.PID - rcfg.TracePIDBase); ri != q%2 {
				t.Fatalf("resumed query %d decoded on replica %d, want %d (its arrival ordinal mod 2)", q, ri, q%2)
			}
		}
	}
	if decodes < len(resumed)/2 {
		t.Errorf("%d decode spans for %d resumed queries", decodes, len(resumed))
	}
}

// checkSlab requires a drained sim's slab to be exactly as large as
// peak, its open query count back to zero, every slot on the free list
// and n arrivals to have been counted.
func checkSlab(t *testing.T, sim *Sim, peak, n int) {
	t.Helper()
	sm := sim.sm
	free := 0
	for qi := sm.free; qi >= 0; qi = sm.qs[qi].next {
		free++
	}
	if len(sm.qs) != peak || sm.open != 0 || free != len(sm.qs) || sm.ids != n {
		t.Errorf("slab of %d slots (%d free) after %d arrivals with %d still open; peak open count %d",
			len(sm.qs), free, sm.ids, sm.open, peak)
	}
}
