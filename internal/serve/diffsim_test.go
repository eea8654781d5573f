package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"facil/internal/engine"
	"facil/internal/fault"
	"facil/internal/obs"
	"facil/internal/workload"
)

// liveDelta captures how one run moved the global Live counters.
func liveDelta(before, after LiveSnapshot) LiveSnapshot {
	return LiveSnapshot{
		RunsStarted:    after.RunsStarted - before.RunsStarted,
		RunsFinished:   after.RunsFinished - before.RunsFinished,
		Events:         after.Events - before.Events,
		VirtualSeconds: after.VirtualSeconds - before.VirtualSeconds,
		Arrived:        after.Arrived - before.Arrived,
		Admitted:       after.Admitted - before.Admitted,
		Rejected:       after.Rejected - before.Rejected,
		Retries:        after.Retries - before.Retries,
		Completed:      after.Completed - before.Completed,
		TimedOut:       after.TimedOut - before.TimedOut,
		Failed:         after.Failed - before.Failed,
		Degraded:       after.Degraded - before.Degraded,
		FailedOver:     after.FailedOver - before.FailedOver,
	}
}

// sameLiveDelta fails t unless two runs moved the Live counters alike.
// The virtual-time odometer is reported in float64 seconds off a global
// nanosecond counter, so differencing it loses ulps as the counter
// grows across cells; it is compared approximately, everything else
// exactly.
func sameLiveDelta(t *testing.T, got, want LiveSnapshot) {
	t.Helper()
	if math.Abs(got.VirtualSeconds-want.VirtualSeconds) > 1e-6 {
		t.Errorf("VirtualSeconds deltas diverge: got %v, want %v", got.VirtualSeconds, want.VirtualSeconds)
	}
	got.VirtualSeconds, want.VirtualSeconds = 0, 0
	if got != want {
		t.Errorf("Live deltas diverge:\n got  %+v\n want %+v", got, want)
	}
}

// diffGrid enumerates the differential-test scenarios: every scheduling
// mode crossed with load, fleet size, preemption, admission/timeout/
// retry pressure and the fault machinery (outage windows, stochastic
// failures, thermal throttle, MapID corruption under each policy).
func diffGrid() []SimConfig {
	alpaca := workload.AlpacaSpec()
	base := func(mode Mode, rate float64) SimConfig {
		return SimConfig{
			Mode: mode, Kind: engine.FACIL, Replicas: 2, ArrivalRate: rate,
			Queries: 120, Workload: alpaca, Seed: 11,
		}
	}
	grid := []SimConfig{
		base(Serial, 0.05),
		base(Cooperative, 0.5),
		base(RelayoutHybrid, 0.5),
	}

	// Load × replicas × preemption sweep on the cooperative scheduler.
	for _, rate := range []float64{0.2, 2, 8} {
		for _, reps := range []int{1, 3} {
			for _, preempt := range []int{1, 8, 32} {
				c := base(Cooperative, rate)
				c.Replicas = reps
				c.preemptSteps = preempt
				grid = append(grid, c)
			}
		}
	}

	// Admission pressure: bounded queue, SLO, hard timeout, retries.
	pressured := base(Cooperative, 4)
	pressured.QueueCap = 6
	pressured.DeadlineTTLT = 15
	pressured.Timeout = 30
	pressured.MaxRetries = 3
	grid = append(grid, pressured)

	hybridPressured := base(RelayoutHybrid, 2)
	hybridPressured.QueueCap = 4
	hybridPressured.Timeout = 20
	grid = append(grid, hybridPressured)

	// Fault scenarios under each degradation policy: scheduled outage
	// windows, stochastic failures, thermal throttle and corruption.
	faulted := fault.Scenario{
		Seed:     13,
		LaneMTBF: 20, LaneMTTR: 4,
		LaneWindows:      [][]fault.Window{{{Start: 5, End: 15}}},
		Thermal:          []fault.Window{{Start: 10, End: 40}},
		MapIDCorruptRate: 0.1,
	}
	for _, pol := range Policies() {
		c := base(Cooperative, 2)
		c.Replicas = 3
		c.Faults = faulted
		c.Policy = pol
		c.BreakerThreshold = 2
		grid = append(grid, c)
	}
	withRetries := base(Cooperative, 4)
	withRetries.Replicas = 2
	withRetries.QueueCap = 5
	withRetries.MaxRetries = 2
	withRetries.Faults = faulted
	withRetries.Policy = PolicyFailover
	grid = append(grid, withRetries)

	// NoTBT, as the fleet router runs its devices: the sim skips the
	// token replay of every non-final quantum, so short and long
	// quanta, and degraded quanta on the SoC lane, must still land
	// TTLT on the reference's full replay.
	for _, preempt := range []int{1, 8, 32} {
		c := base(Cooperative, 2)
		c.Replicas = 3
		c.preemptSteps = preempt
		c.NoTBT = true
		grid = append(grid, c)
	}
	noTBTFaulted := base(Cooperative, 2)
	noTBTFaulted.Replicas = 3
	noTBTFaulted.Faults = faulted
	noTBTFaulted.Policy = PolicySoCFallback
	noTBTFaulted.BreakerThreshold = 2
	noTBTFaulted.NoTBT = true
	grid = append(grid, noTBTFaulted)

	return grid
}

// diffName labels one grid cell for subtest output.
func diffName(i int, cfg SimConfig) string {
	name := fmt.Sprintf("%02d-%s-r%g-x%d-p%d-q%d-f%v-pol%d",
		i, cfg.Mode, cfg.ArrivalRate, cfg.Replicas, cfg.preemptSteps,
		cfg.QueueCap, !cfg.Faults.Empty(), cfg.Policy)
	if cfg.NoTBT {
		name += "-notbt"
	}
	return name
}

// TestDifferentialSim locksteps the optimized Sim against the retained
// ReferenceSim over the scenario grid: every step must land both
// simulators on the same virtual clock, and the runs must produce
// identical Metrics (latency quantiles, makespan, utilization,
// time-weighted histograms — reflect.DeepEqual over the whole struct)
// and move the global Live counters by identical deltas.
func TestDifferentialSim(t *testing.T) {
	s := servingSystem(t)
	for i, cfg := range diffGrid() {
		if testing.Short() && i%4 != 0 {
			continue
		}
		t.Run(diffName(i, cfg), func(t *testing.T) {
			// Pass 1: full runs back to back, comparing Metrics and the
			// exact movement each run imparts to the global Live counters
			// (the package's tests run sequentially, so the deltas are
			// exact).
			b0 := Live.Snapshot()
			mr, err := ReferenceRun(s, cfg)
			if err != nil {
				t.Fatalf("ReferenceRun: %v", err)
			}
			b1 := Live.Snapshot()
			mo, err := Run(s, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			b2 := Live.Snapshot()
			if !reflect.DeepEqual(mo, mr) {
				t.Errorf("metrics diverge:\n optimized %+v\n reference %+v", mo, mr)
			}
			if cfg.NoTBT && cfg.Policy == PolicySoCFallback && mo.Degraded == 0 {
				t.Errorf("NoTBT faulted cell ran no degraded quanta")
			}
			sameLiveDelta(t, liveDelta(b1, b2), liveDelta(b0, b1))
			// Pass 2: lockstep stepping — both engines must process the
			// same event sequence. One optimized Step may cover several
			// events (decode quanta run in place), so after each the
			// reference takes as many steps as the optimized event count
			// moved (one when neither has events left), and the two must
			// land on identical completion clocks with identical backlog.
			// Both are also finished midway: the optimized sim's in-place
			// selection reorders its sample buffers, and the later
			// Finishes must still equal the reference's sorted copies bit
			// for bit.
			ref, err := NewReferenceSim(s, cfg)
			if err != nil {
				t.Fatalf("NewReferenceSim: %v", err)
			}
			opt, err := NewSim(s, cfg)
			if err != nil {
				t.Fatalf("NewSim: %v", err)
			}
			for step := 0; ; step++ {
				if rp, op := ref.Pending(), opt.Pending(); rp != op {
					t.Fatalf("step %d: Pending diverges: reference %d, optimized %d", step, rp, op)
				}
				e0 := opt.eventCount()
				moreOpt, errOpt := opt.Step()
				n := max(opt.eventCount()-e0, 1)
				var moreRef bool
				var errRef error
				for i := int64(0); i < n && errRef == nil; i++ {
					if moreRef, errRef = ref.Step(); !moreRef && i < n-1 {
						t.Fatalf("step %d: reference ran out after %d of %d events", step, i+1, n)
					}
				}
				if (errRef == nil) != (errOpt == nil) {
					t.Fatalf("step %d: reference err %v, optimized err %v", step, errRef, errOpt)
				}
				if errRef != nil {
					t.Fatalf("step %d: %v", step, errRef)
				}
				if moreRef != moreOpt {
					t.Fatalf("step %d: reference more=%v, optimized more=%v", step, moreRef, moreOpt)
				}
				if rn, on := ref.Now(), opt.Now(); rn != on {
					t.Fatalf("step %d: completion clocks diverge: reference %v, optimized %v", step, rn, on)
				}
				if step == cfg.Queries {
					if mo, mr := opt.Finish(), ref.Finish(); !reflect.DeepEqual(mo, mr) {
						t.Fatalf("step %d: mid-run Finish diverges:\n optimized %+v\n reference %+v", step, mo, mr)
					}
				}
				if !moreRef {
					break
				}
			}
			for pass := 0; pass < 2; pass++ {
				if mo, mr := opt.Finish(), ref.Finish(); !reflect.DeepEqual(mo, mr) {
					t.Fatalf("Finish %d diverges:\n optimized %+v\n reference %+v", pass+1, mo, mr)
				}
			}
		})
	}
}

// TestGeneratedMatchesInjected holds the generated and host-fed ways
// of filling a sim to one path: for every grid cell, Run must equal a
// host-fed sim (Queries 0) given the same arrivals by Inject, then
// sealed and drained — bit-identical Metrics and the same movement of
// the Live counters.
func TestGeneratedMatchesInjected(t *testing.T) {
	s := servingSystem(t)
	for i, cfg := range diffGrid() {
		t.Run(diffName(i, cfg), func(t *testing.T) {
			ds, err := workload.Generate(cfg.Workload, cfg.Queries, cfg.Seed+1)
			if err != nil {
				t.Fatal(err)
			}
			b0 := Live.Snapshot()
			mg, err := Run(s, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			b1 := Live.Snapshot()
			host := cfg
			host.Queries = 0
			sim, err := NewSim(s, host)
			if err != nil {
				t.Fatalf("NewSim: %v", err)
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			var clock float64
			for _, q := range ds.Queries {
				clock += rng.ExpFloat64() / cfg.ArrivalRate
				if err := sim.Inject(clock, q.Prefill, q.Decode); err != nil {
					t.Fatal(err)
				}
			}
			sim.Seal()
			if err := sim.AdvanceTo(math.Inf(1)); err != nil {
				t.Fatal(err)
			}
			mi := sim.Finish()
			b2 := Live.Snapshot()
			if !reflect.DeepEqual(mi, mg) {
				t.Errorf("metrics diverge:\n injected  %+v\n generated %+v", mi, mg)
			}
			sameLiveDelta(t, liveDelta(b1, b2), liveDelta(b0, b1))
		})
	}
}

// barrierRun feeds a host-fed copy of cfg its generated arrivals the
// way the cluster router feeds a device: at each barrier k*spacing it
// injects the arrivals before the next barrier and advances to it. The
// stream is sealed with its last arrival and then drained.
func barrierRun(t *testing.T, s *engine.System, cfg SimConfig, spacing float64) *Sim {
	t.Helper()
	ds, err := workload.Generate(cfg.Workload, cfg.Queries, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ats := make([]float64, len(ds.Queries))
	var clock float64
	for i := range ats {
		clock += rng.ExpFloat64() / cfg.ArrivalRate
		ats[i] = clock
	}
	qs := ds.Queries
	host := cfg
	host.Queries = 0
	sim, err := NewSim(s, host)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	next := 0
	for k := 1; next < len(ats); k++ {
		barrier := float64(k) * spacing
		for ; next < len(ats) && ats[next] < barrier; next++ {
			if err := sim.Inject(ats[next], qs[next].Prefill, qs[next].Decode); err != nil {
				t.Fatal(err)
			}
		}
		if next == len(ats) {
			sim.Seal()
		}
		if err := sim.AdvanceTo(barrier); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.AdvanceTo(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestBarrierAdvanceMatchesRun holds a barrier-driven host-fed sim to
// Run for every grid cell at two barrier spacings: the bit-identical
// Metrics and Live movement require every decode quantum run in place
// to stop before a finite AdvanceTo horizon and before the next
// injected arrival, as the unfused loop would.
func TestBarrierAdvanceMatchesRun(t *testing.T) {
	s := servingSystem(t)
	for i, cfg := range diffGrid() {
		for _, spacing := range []float64{0.37, 5} {
			t.Run(fmt.Sprintf("%s-b%g", diffName(i, cfg), spacing), func(t *testing.T) {
				b0 := Live.Snapshot()
				mg, err := Run(s, cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				b1 := Live.Snapshot()
				mb := barrierRun(t, s, cfg, spacing).Finish()
				b2 := Live.Snapshot()
				if !reflect.DeepEqual(mb, mg) {
					t.Errorf("metrics diverge:\n barrier   %+v\n generated %+v", mb, mg)
				}
				sameLiveDelta(t, liveDelta(b1, b2), liveDelta(b0, b1))
			})
		}
	}
}

// TestDifferentialRunEntrypoints pins the one-shot drivers too: Run and
// ReferenceRun agree for a representative faulted cell.
func TestDifferentialRunEntrypoints(t *testing.T) {
	s := servingSystem(t)
	cfg := diffGrid()[len(diffGrid())-1]
	mr, err := ReferenceRun(s, cfg)
	if err != nil {
		t.Fatalf("ReferenceRun: %v", err)
	}
	mo, err := Run(s, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(mo, mr) {
		t.Errorf("metrics diverge:\n optimized %+v\n reference %+v", mo, mr)
	}
}

// TestDifferentialTrace runs both simulators with tracers attached and
// requires byte-identical Chrome-trace output: the rebuild may not move,
// rename or re-order a single instrumentation point.
func TestDifferentialTrace(t *testing.T) {
	s := servingSystem(t)
	cfg := SimConfig{
		Mode: Cooperative, Kind: engine.FACIL, Replicas: 2, ArrivalRate: 4,
		Queries: 120, Workload: workload.AlpacaSpec(), Seed: 11,
		QueueCap: 6, DeadlineTTLT: 15, Timeout: 30, MaxRetries: 3,
	}
	trace := func(run func(SimConfig) error) []byte {
		tr := obs.New(1 << 16)
		c := cfg
		c.Tracer = tr
		if err := run(c); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := trace(func(c SimConfig) error { _, err := ReferenceRun(s, c); return err })
	opt := trace(func(c SimConfig) error { _, err := Run(s, c); return err })
	if !bytes.Equal(ref, opt) {
		t.Errorf("trace output diverges: reference %d bytes, optimized %d bytes", len(ref), len(opt))
	}
}

// FuzzSimDifferential fuzzes the optimized Sim against the reference
// over randomized arrival/timeout/fault interleavings: any reachable
// configuration must produce bit-identical Metrics.
func FuzzSimDifferential(f *testing.F) {
	f.Add(int64(1), 2.0, 40, 2, 1, 8, 6, 10.0, 2, 0.0, 0.0, 0.0, 1, false)
	f.Add(int64(7), 0.3, 25, 1, 0, 1, 0, 0.0, 0, 0.0, 0.0, 0.0, 0, false)
	f.Add(int64(9), 5.0, 60, 3, 2, 16, 4, 8.0, 3, 15.0, 3.0, 0.2, 2, false)
	f.Add(int64(3), 1.0, 30, 2, 1, 4, 0, 5.0, 0, 6.0, 2.0, 1.0, 0, false)
	// A valid but far-future MTBF: no outage may begin inside the run.
	f.Add(int64(5), 0.3, 40, 2, 1, 8, 4, 0.0, 2, 1e300, 5.0, 0.3, 2, false)
	// NoTBT, plain and with lane faults falling back to the SoC lane.
	f.Add(int64(2), 2.0, 40, 2, 1, 1, 0, 0.0, 0, 0.0, 0.0, 0.0, 0, true)
	f.Add(int64(4), 2.0, 50, 3, 1, 8, 6, 10.0, 2, 15.0, 3.0, 0.2, 1, true)
	f.Fuzz(func(t *testing.T, seed int64, rate float64, queries, replicas, mode, preempt, queueCap int,
		timeout float64, retries int, mtbf, mttr, corrupt float64, policy int, noTBT bool) {
		cfg := SimConfig{
			Mode:         Mode(clampInt(mode, 0, 2)),
			Kind:         engine.FACIL,
			Replicas:     clampInt(replicas, 1, 4),
			ArrivalRate:  rate,
			Queries:      clampInt(queries, 1, 60),
			Workload:     workload.AlpacaSpec(),
			Seed:         seed,
			QueueCap:     clampInt(queueCap, 0, 16),
			Timeout:      timeout,
			MaxRetries:   clampInt(retries, 0, 4),
			preemptSteps: clampInt(preempt, 0, 64),
			NoTBT:        noTBT,
		}
		if mtbf > 0 || corrupt > 0 {
			cfg.Faults = fault.Scenario{
				Seed:             seed ^ 0x9E3779B9,
				LaneMTBF:         mtbf,
				LaneMTTR:         mttr,
				MapIDCorruptRate: corrupt,
			}
			cfg.Policy = Policy(clampInt(policy, 0, 2))
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		s := servingSystem(t)
		mr, err := ReferenceRun(s, cfg)
		mo, err2 := Run(s, cfg)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("error divergence: reference %v, optimized %v", err, err2)
		}
		if err != nil {
			t.Skip()
		}
		if !reflect.DeepEqual(mo, mr) {
			t.Fatalf("metrics diverge for %+v:\n optimized %+v\n reference %+v", cfg, mo, mr)
		}
	})
}

// clampInt pins v into [lo, hi] (fuzz inputs are unconstrained).
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
