package serve

import (
	"math"
	"testing"

	"facil/internal/engine"
)

// drainTestConfig is the mid-load scenario the drain drill fires into:
// enough sustained traffic that plenty of queries are in flight or
// still arriving when the outage lands.
func drainTestConfig(policy Policy) SimConfig {
	return SimConfig{
		Mode:        Cooperative,
		Kind:        engine.FACIL,
		Replicas:    2,
		ArrivalRate: 4,
		Queries:     200,
		Workload:    fixedSpec(256, 64),
		Seed:        11,
		Policy:      policy,
	}
}

// stepHalfThenTrigger sizes the run with a probe sim, steps the
// measured sim through half its events, fires the process-wide drain
// outage, and drains the rest.
func stepHalfThenTrigger(t *testing.T, cfg SimConfig, seconds float64) Metrics {
	t.Helper()
	s := servingSystem(t)
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
	sim, err := NewSim(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total/2; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	TriggerDrainOutage(seconds)
	return drainSim(t, sim)
}

// TestDrainOutageFailsUnderPolicyNone pins the fault drill's teeth: a
// triggered lane outage lands on every replica of a mid-flight run, and
// under the no-policy tier the queries caught by it fail terminally —
// while the accounting identity still balances.
func TestDrainOutageFailsUnderPolicyNone(t *testing.T) {
	m := stepHalfThenTrigger(t, drainTestConfig(PolicyNone), 1e6)
	if m.LaneFailures != 2 {
		t.Errorf("lane failures %d, want one per replica", m.LaneFailures)
	}
	if m.Failed == 0 {
		t.Error("no query failed through a full-fleet outage under PolicyNone")
	}
	if got := m.Completed + m.Failed + m.Retracted; got != m.Admitted {
		t.Errorf("outcomes %d != admitted %d", got, m.Admitted)
	}
}

// TestDrainOutageDegradesUnderFallback is the same drill under the SoC
// fallback tier: nothing fails, the caught queries finish on the SoC
// path and count as Degraded.
func TestDrainOutageDegradesUnderFallback(t *testing.T) {
	m := stepHalfThenTrigger(t, drainTestConfig(PolicySoCFallback), 1e6)
	if m.Failed != 0 {
		t.Errorf("%d queries failed under the fallback policy", m.Failed)
	}
	if m.Degraded == 0 {
		t.Error("no query degraded through a full-fleet outage under PolicySoCFallback")
	}
	if m.Completed != m.Admitted {
		t.Errorf("completed %d != admitted %d (fallback should finish everything)", m.Completed, m.Admitted)
	}
}

// TestDrainOutageSerialIgnored pins that Serial-mode sims ignore the
// trigger: the fault model targets the two-lane schedulers, and a
// serial run triggered mid-flight finishes clean.
func TestDrainOutageSerialIgnored(t *testing.T) {
	cfg := drainTestConfig(PolicyNone)
	cfg.Mode = Serial
	m := stepHalfThenTrigger(t, cfg, 1e6)
	if m.LaneFailures != 0 || m.Failed != 0 || m.Degraded != 0 {
		t.Errorf("serial run took the drain outage: %d failures, %d failed, %d degraded",
			m.LaneFailures, m.Failed, m.Degraded)
	}
	if m.Completed != m.Admitted {
		t.Errorf("completed %d != admitted %d", m.Completed, m.Admitted)
	}
}

// TestDrainOutageInvalidDurationsIgnored pins that non-positive and
// non-finite durations never arm the drill.
func TestDrainOutageInvalidDurationsIgnored(t *testing.T) {
	sim, err := NewSim(servingSystem(t), drainTestConfig(PolicyNone))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	TriggerDrainOutage(0)
	TriggerDrainOutage(-5)
	TriggerDrainOutage(math.Inf(1))
	m := drainSim(t, sim)
	if m.LaneFailures != 0 || m.Failed != 0 {
		t.Errorf("invalid trigger durations armed the drill: %d failures, %d failed", m.LaneFailures, m.Failed)
	}
}
