package serve

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"

	"facil/internal/engine"
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
