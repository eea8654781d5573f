package serve

import (
	"sync"
	"testing"

	"facil/internal/engine"
	"facil/internal/llm"
	"facil/internal/soc"
)

// servingSystem returns a shared engine.System: it is immutable and
// goroutine-safe, so every test reuses one instance and its memoized
// latency caches instead of paying a cold build each.
var servingOnce = struct {
	sync.Once
	s   *engine.System
	err error
}{}

func servingSystem(t testing.TB) *engine.System {
	t.Helper()
	servingOnce.Do(func() {
		servingOnce.s, servingOnce.err = engine.NewSystem(soc.IPhone, llm.Phi1_5(), engine.DefaultConfig())
	})
	if servingOnce.err != nil {
		t.Fatal(servingOnce.err)
	}
	return servingOnce.s
}

// serialRun runs the single-replica Serial-mode FCFS queue on the shared
// system.
func serialRun(t *testing.T, kind engine.Kind, rate float64) Metrics {
	t.Helper()
	m, err := Run(servingSystem(t), simConfig(Serial, kind, rate))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimulateBasics(t *testing.T) {
	m := serialRun(t, engine.FACIL, 0.05)
	if m.TTFT.Mean <= 0 || m.TTLT.Mean <= m.TTFT.Mean {
		t.Errorf("latencies implausible: TTFT %+v TTLT %+v", m.TTFT, m.TTLT)
	}
	if m.SoCUtilization <= 0 || m.SoCUtilization > 1 {
		t.Errorf("utilization = %g", m.SoCUtilization)
	}
	if m.TTFT.P99 < m.TTFT.Mean {
		t.Errorf("p99 %.3f below mean %.3f", m.TTFT.P99, m.TTFT.Mean)
	}
	if m.MaxQueueDepth < 1 {
		t.Errorf("queue depth %d", m.MaxQueueDepth)
	}
}

func TestLoadAmplifiesLatency(t *testing.T) {
	light := serialRun(t, engine.HybridStatic, 0.02)
	heavy := serialRun(t, engine.HybridStatic, 0.4)
	if heavy.TTFT.Mean <= light.TTFT.Mean {
		t.Errorf("load did not raise perceived TTFT: %.3f vs %.3f", heavy.TTFT.Mean, light.TTFT.Mean)
	}
	if heavy.SoCUtilization <= light.SoCUtilization {
		t.Error("utilization did not rise with load")
	}
}

func TestFACILServesBetterUnderLoad(t *testing.T) {
	hybrid := serialRun(t, engine.HybridStatic, 0.3)
	facil := serialRun(t, engine.FACIL, 0.3)
	if facil.TTFT.Mean >= hybrid.TTFT.Mean {
		t.Errorf("FACIL perceived TTFT %.3f not below hybrid %.3f", facil.TTFT.Mean, hybrid.TTFT.Mean)
	}
	if facil.SoCUtilization >= hybrid.SoCUtilization {
		t.Errorf("FACIL utilization %.2f not below hybrid %.2f (same offered load)",
			facil.SoCUtilization, hybrid.SoCUtilization)
	}
}

// TestConfigValidation: the otherwise complete Serial-mode FCFS config
// serialRun uses is still rejected with a zero arrival rate or no
// queries.
func TestConfigValidation(t *testing.T) {
	s := servingSystem(t)
	zeroRate := simConfig(Serial, engine.FACIL, 0)
	if _, err := Run(s, zeroRate); err == nil {
		t.Error("zero rate accepted")
	}
	noQueries := simConfig(Serial, engine.FACIL, 1)
	noQueries.Queries = 0
	if _, err := Run(s, noQueries); err == nil {
		t.Error("zero queries accepted")
	}
}
