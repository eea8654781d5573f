package serve

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"facil/internal/engine"
	"facil/internal/fault"
)

// outageScenario schedules one long PIM-lane outage on replica 0 and
// leaves every other replica healthy.
func outageScenario(start, end float64) fault.Scenario {
	return fault.Scenario{
		Seed:        7,
		LaneWindows: [][]fault.Window{{{Start: start, End: end}}},
	}
}

// TestFaultConfigValidation is the table-driven rejection check of every
// fault/retry knob: NaN and Inf durations, negative limits, retries
// without a queue bound, unknown policies, bad scenarios and serial-mode
// faults must all be rejected before a run starts.
func TestFaultConfigValidation(t *testing.T) {
	base := simConfig(Cooperative, engine.FACIL, 1)
	cases := []struct {
		name   string
		mutate func(*SimConfig)
	}{
		{"NaN arrival rate", func(c *SimConfig) { c.ArrivalRate = math.NaN() }},
		{"Inf arrival rate", func(c *SimConfig) { c.ArrivalRate = math.Inf(1) }},
		{"NaN deadline", func(c *SimConfig) { c.DeadlineTTLT = math.NaN() }},
		{"Inf deadline", func(c *SimConfig) { c.DeadlineTTLT = math.Inf(1) }},
		{"negative deadline", func(c *SimConfig) { c.DeadlineTTLT = -1 }},
		{"negative breaker threshold", func(c *SimConfig) { c.BreakerThreshold = -1 }},
		{"negative retries", func(c *SimConfig) { c.MaxRetries = -1 }},
		{"retries without queue cap", func(c *SimConfig) { c.MaxRetries = 3 }},
		{"policy below range", func(c *SimConfig) { c.Policy = Policy(-1) }},
		{"policy above range", func(c *SimConfig) { c.Policy = Policy(99) }},
		{"MTBF without MTTR", func(c *SimConfig) { c.Faults.LaneMTBF = 10 }},
		{"NaN MTBF", func(c *SimConfig) { c.Faults.LaneMTBF = math.NaN() }},
		{"overlapping lane windows", func(c *SimConfig) {
			c.Faults.LaneWindows = [][]fault.Window{{{Start: 0, End: 5}, {Start: 4, End: 6}}}
		}},
		{"inverted thermal window", func(c *SimConfig) {
			c.Faults.Thermal = []fault.Window{{Start: 3, End: 3}}
		}},
		{"corrupt rate above 1", func(c *SimConfig) { c.Faults.MapIDCorruptRate = 1.5 }},
		{"NaN corrupt rate", func(c *SimConfig) { c.Faults.MapIDCorruptRate = math.NaN() }},
		{"faults in serial mode", func(c *SimConfig) {
			c.Mode = Serial
			c.Faults = outageScenario(1, 2)
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// TestFaultConservation sweeps (seed x policy x fault rate) and checks
// the query-conservation identities on every cell — no query is lost or
// double-counted under any fault schedule — plus bitwise determinism:
// the same cell run twice yields deeply equal Metrics.
func TestFaultConservation(t *testing.T) {
	s := servingSystem(t)
	for _, seed := range []int64{1, 42} {
		for _, mtbf := range []float64{0, 20, 5} {
			for _, pol := range Policies() {
				cfg := simConfig(Cooperative, engine.FACIL, 2)
				cfg.Queries = 60
				cfg.Replicas = 2
				cfg.Seed = seed
				cfg.QueueCap = 8
				cfg.MaxRetries = 2
				cfg.Policy = pol
				cfg.Faults = fault.Scenario{Seed: seed + 100, MapIDCorruptRate: 0.05}
				if mtbf > 0 {
					cfg.Faults.LaneMTBF = mtbf
					cfg.Faults.LaneMTTR = 2
				}
				name := fmt.Sprintf("seed=%d mtbf=%g policy=%v", seed, mtbf, pol)
				m, err := Run(s, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.Arrived != cfg.Queries {
					t.Errorf("%s: arrived %d, want %d", name, m.Arrived, cfg.Queries)
				}
				if m.Arrived != m.Admitted+m.Rejected {
					t.Errorf("%s: arrived %d != admitted %d + rejected %d",
						name, m.Arrived, m.Admitted, m.Rejected)
				}
				if m.Admitted != m.Completed+m.Failed {
					t.Errorf("%s: admitted %d != completed %d + failed %d",
						name, m.Admitted, m.Completed, m.Failed)
				}
				if m.Arrived != m.Completed+m.Rejected+m.Failed {
					t.Errorf("%s: conservation broken: %+v", name, m)
				}
				if m.Availability < 0 || m.Availability > 1 {
					t.Errorf("%s: availability %g out of range", name, m.Availability)
				}
				again, err := Run(s, cfg)
				if err != nil {
					t.Fatalf("%s rerun: %v", name, err)
				}
				if !reflect.DeepEqual(m, again) {
					t.Errorf("%s: repeated faulted runs diverged", name)
				}
			}
		}
	}
}

// TestFarFutureFaultsDrain: a lane MTBF far beyond any makespan is a
// valid scenario and must leave the run unharmed — it drains within a
// small step budget (each short query takes four events), every query
// completes and no outage begins. The event queue orders raw
// timestamps, so a far-future fault time cannot overflow into an
// earlier one.
func TestFarFutureFaultsDrain(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 0.3)
	cfg.Replicas = 2
	cfg.Workload = fixedSpec(128, 16)
	cfg.Faults = fault.Scenario{LaneMTBF: 1e300, LaneMTTR: 5}
	sim, err := NewSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := 10 * cfg.Queries
	for steps, more := 0, true; more; steps++ {
		if steps == budget {
			m := sim.Finish()
			t.Fatalf("not drained after %d steps: %d of %d completed, %d lane failures, clock at %g s",
				budget, m.Completed, cfg.Queries, m.LaneFailures, sim.Now())
		}
		if more, err = sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m := sim.Finish()
	if m.Completed != cfg.Queries || m.LaneFailures != 0 {
		t.Errorf("completed %d of %d with %d lane failures, want all and 0", m.Completed, cfg.Queries, m.LaneFailures)
	}
}

// TestEmptyScenarioPolicyInert locks the zero-impact contract from the
// other side: with an empty fault scenario, the policy and breaker
// knobs change nothing — the fault layer is off, so every policy yields
// metrics deeply equal to the plain config's.
func TestEmptyScenarioPolicyInert(t *testing.T) {
	s := servingSystem(t)
	plain := simConfig(Cooperative, engine.FACIL, 0.4)
	plain.QueueCap = 16
	want, err := Run(s, plain)
	if err != nil {
		t.Fatal(err)
	}
	if want.Failed != 0 || want.Degraded != 0 || want.Availability != 1 {
		t.Fatalf("faultless run reports fault activity: %+v", want)
	}
	for _, pol := range Policies() {
		cfg := plain
		cfg.Policy = pol
		cfg.BreakerThreshold = 3
		got, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("policy %v with empty scenario diverged from plain run", pol)
		}
	}
}

// TestPolicyMonotonicity is the acceptance-criteria ordering: under one
// fault schedule, failover (which can still use the healthy replica's
// PIM lane) completes at least as much useful work as SoC-only
// degradation, which beats failing queries outright.
func TestPolicyMonotonicity(t *testing.T) {
	s := servingSystem(t)
	run := func(pol Policy) Metrics {
		cfg := simConfig(Cooperative, engine.FACIL, 3)
		cfg.Queries = 80
		cfg.Replicas = 2
		cfg.DeadlineTTLT = 20
		cfg.Policy = pol
		cfg.Faults = outageScenario(1, 40)
		m, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	none, fallback, failover := run(PolicyNone), run(PolicySoCFallback), run(PolicyFailover)
	if none.Failed == 0 {
		t.Error("no-policy run failed no queries during a 39s outage")
	}
	if fallback.Degraded == 0 {
		t.Error("fallback run degraded no queries")
	}
	if failover.FailedOver == 0 {
		t.Error("failover run migrated no queries")
	}
	if fallback.Failed != 0 || failover.Failed != 0 {
		t.Errorf("graceful policies failed queries: fallback %d, failover %d",
			fallback.Failed, failover.Failed)
	}
	// Goodput under a fixed offered load is the count of completions
	// inside the SLO (per-second rates reward PolicyNone for dropping
	// queries: failing the backlog shrinks the makespan denominator).
	if !(failover.SLOMet >= fallback.SLOMet && fallback.SLOMet > none.SLOMet) {
		t.Errorf("SLO completions not monotone: failover %d, fallback %d, none %d",
			failover.SLOMet, fallback.SLOMet, none.SLOMet)
	}
	for _, m := range []Metrics{none, fallback, failover} {
		if m.LaneFailures != 1 {
			t.Errorf("lane failures = %d, want 1", m.LaneFailures)
		}
		if m.Availability >= 1 || m.Availability <= 0 {
			t.Errorf("availability %g not in (0,1) during an outage", m.Availability)
		}
		if m.LaneDownSecs <= 0 {
			t.Errorf("no lane downtime recorded: %+v", m)
		}
	}
}

// TestLaneMTTRMeasured: a repaired outage shows up as the observed mean
// time to repair.
func TestLaneMTTRMeasured(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 3)
	cfg.Queries = 80
	cfg.Policy = PolicySoCFallback
	cfg.Faults = outageScenario(1, 9)
	m, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Makespan <= 9 {
		t.Fatalf("run ended at %.2fs, before the outage cleared", m.Makespan)
	}
	if math.Abs(m.LaneMTTR-8) > 1e-9 {
		t.Errorf("LaneMTTR = %g, want 8 (the scheduled window length)", m.LaneMTTR)
	}
}

// TestFinishTwiceUnderFaults: lanes still down when the run ends add
// their outage to the Metrics once, however often Finish or Counters is
// called — finishing reads the sim and does not change it.
func TestFinishTwiceUnderFaults(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 3)
	cfg.Replicas = 2
	cfg.Policy = PolicySoCFallback
	cfg.Faults = fault.Scenario{Seed: 7, LaneMTBF: 2, LaneMTTR: 1e6}
	sim, err := NewSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := drainSim(t, sim)
	if first.LaneDownSecs <= 0 || first.Availability >= 1 {
		t.Fatalf("no lane was down at the end (LaneDownSecs %g, Availability %g): the test needs one",
			first.LaneDownSecs, first.Availability)
	}
	if second := sim.Finish(); !reflect.DeepEqual(second, first) {
		t.Errorf("second Finish differs:\n got %+v\nwant %+v", second, first)
	}
	c := sim.Counters()
	if c.LaneDownSecs != first.LaneDownSecs || c.Availability != first.Availability {
		t.Errorf("Counters after Finish: LaneDownSecs %g, Availability %g; want %g, %g",
			c.LaneDownSecs, c.Availability, first.LaneDownSecs, first.Availability)
	}
}

// TestThermalThrottleSlowsRun: a thermal window spanning the run slows
// every quantum by the measured DRAM derate — completions survive but
// latency and makespan inflate.
func TestThermalThrottleSlowsRun(t *testing.T) {
	s := servingSystem(t)
	base := simConfig(Cooperative, engine.FACIL, 1)
	cool, err := Run(s, base)
	if err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.Faults = fault.Scenario{Thermal: []fault.Window{{Start: 0, End: 1e9}}}
	m, err := Run(s, hot)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != cool.Completed || m.Failed != 0 {
		t.Fatalf("thermal run lost queries: %+v", m)
	}
	if m.TTLT.Mean <= cool.TTLT.Mean {
		t.Errorf("throttled TTLT mean %.4f not above nominal %.4f", m.TTLT.Mean, cool.TTLT.Mean)
	}
	if m.Makespan <= cool.Makespan {
		t.Errorf("throttled makespan %.2f not above nominal %.2f", m.Makespan, cool.Makespan)
	}
	if m.Availability != 1 {
		t.Errorf("thermal throttling is not an outage; availability = %g", m.Availability)
	}
}

// TestBreakerOpensAndRecovers: with a 1-failure threshold, the first
// dispatch onto the dead lane opens the breaker, and the lane is back in
// use after the outage plus cooldown (the run completes on the PIM
// path again, closing the breaker via a half-open probe).
func TestBreakerOpensAndRecovers(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 3)
	cfg.Queries = 80
	cfg.Policy = PolicySoCFallback
	cfg.BreakerThreshold = 1
	cfg.Faults = outageScenario(1, 10)
	m, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BreakerOpens == 0 {
		t.Error("breaker never opened against a dead lane")
	}
	if m.Completed != m.Admitted {
		t.Errorf("accounting with breaker: %+v", m)
	}
	// The lane must be in use again after recovery: decode busy-seconds
	// exceed what the outage window leaves for the SoC path alone.
	if m.PIMUtilization <= 0 {
		t.Errorf("PIM lane never recovered: utilization %g", m.PIMUtilization)
	}
}

// TestClientRetries: under overload with a bounded queue, rejected
// arrivals retry with backoff and some eventually land — retries happen,
// every query still counts exactly once, and a retried query that gets
// in completes normally.
func TestClientRetries(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 50)
	cfg.QueueCap = 4
	noRetry, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxRetries = 5
	m, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Retries == 0 {
		t.Error("overloaded run retried nothing")
	}
	if m.Arrived != cfg.Queries {
		t.Errorf("arrived %d, want %d (retries must not double-count)", m.Arrived, cfg.Queries)
	}
	if m.Arrived != m.Completed+m.Rejected+m.Failed {
		t.Errorf("conservation with retries: %+v", m)
	}
	if m.Completed <= noRetry.Completed {
		t.Errorf("retries completed %d, not above no-retry %d", m.Completed, noRetry.Completed)
	}
}

// TestMapIDCorruption: with every admitted query's PTE MapID corrupted,
// PolicyNone loses them all at the decode handoff (silent
// mis-translation), while the validating-frontend policies repair every
// one for a fixed page-table re-walk penalty.
func TestMapIDCorruption(t *testing.T) {
	s := servingSystem(t)
	base := simConfig(Cooperative, engine.FACIL, 1)
	base.Workload = fixedSpec(32, 16) // decode > 1: every query reaches the handoff
	base.Queries = 40
	base.Faults = fault.Scenario{Seed: 3, MapIDCorruptRate: 1}

	none := base
	none.Policy = PolicyNone
	mn, err := Run(s, none)
	if err != nil {
		t.Fatal(err)
	}
	if mn.CorruptMapIDs != mn.Admitted || mn.Failed != mn.Admitted || mn.Completed != 0 {
		t.Errorf("PolicyNone under full corruption: %+v", mn)
	}

	repair := base
	repair.Policy = PolicySoCFallback
	mr, err := Run(s, repair)
	if err != nil {
		t.Fatal(err)
	}
	if mr.CorruptRepaired != mr.CorruptMapIDs || mr.Failed != 0 || mr.Completed != mr.Admitted {
		t.Errorf("repairing policy under full corruption: %+v", mr)
	}
	if mr.Degraded != 0 {
		t.Errorf("MapID repair degraded %d queries; repair is not a lane fallback", mr.Degraded)
	}
}
