package serve

import (
	"math"
	"reflect"
	"testing"
	"time"

	"facil/internal/engine"
	"facil/internal/stats"
	"facil/internal/workload"
)

// fixedSpec builds a degenerate workload whose every query has exactly
// (prefill, decode) tokens — handy for scheduling-shape assertions.
func fixedSpec(prefill, decode int) workload.Spec {
	return workload.Spec{
		Name:    "fixed",
		Prefill: workload.LengthDist{MedianTokens: float64(prefill), Min: prefill, Max: prefill},
		Decode:  workload.LengthDist{MedianTokens: float64(decode), Min: decode, Max: decode},
	}
}

func simConfig(mode Mode, kind engine.Kind, rate float64) SimConfig {
	return SimConfig{
		Mode:        mode,
		Kind:        kind,
		Replicas:    1,
		ArrivalRate: rate,
		Queries:     120,
		Workload:    workload.AlpacaSpec(),
		Seed:        5,
	}
}

// TestSerialMatchesLegacySimulate pins Serial mode with one replica to
// the numbers of the closed-form FCFS queue the simulator was
// bootstrapped against (start = max(arrival, device free), finish =
// start + TTLT), recorded at %.12g for the same seed.
func TestSerialMatchesLegacySimulate(t *testing.T) {
	s := servingSystem(t)
	for _, want := range []struct {
		kind                        engine.Kind
		ttftMean, ttftP99, ttltMean float64
		utilization                 float64
		maxDepth                    int
	}{
		{engine.HybridStatic, 1.49456298726, 9.53436925434, 2.77260928646, 0.441563286944, 8},
		{engine.FACIL, 1.11855703959, 8.09235286963, 2.39660333879, 0.40507333962, 7},
	} {
		kind := want.kind
		m, err := Run(s, simConfig(Serial, kind, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		closeTo := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%v %s: event-driven %.12f vs legacy %.12f", kind, name, got, want)
			}
		}
		closeTo("TTFT mean", m.TTFT.Mean, want.ttftMean)
		closeTo("TTFT p99", m.TTFT.P99, want.ttftP99)
		closeTo("TTLT mean", m.TTLT.Mean, want.ttltMean)
		closeTo("utilization", m.SoCUtilization, want.utilization)
		if m.MaxQueueDepth != want.maxDepth {
			t.Errorf("%v max depth: %d vs legacy %d", kind, m.MaxQueueDepth, want.maxDepth)
		}
		if m.Completed != 120 || m.Rejected != 0 || m.TimedOut != 0 {
			t.Errorf("%v accounting: %+v", kind, m)
		}
	}
}

// TestCooperativeOverlapBeatsSerial is the point of the tentpole: with
// both phases non-zero, overlapping query B's prefill with query A's
// decode on one replica strictly raises steady-state throughput.
func TestCooperativeOverlapBeatsSerial(t *testing.T) {
	s := servingSystem(t)
	mk := func(mode Mode) Metrics {
		cfg := simConfig(mode, engine.FACIL, 50 /* saturating */)
		cfg.Workload = fixedSpec(64, 48)
		cfg.Queries = 60
		m, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, coop := mk(Serial), mk(Cooperative)
	if coop.ThroughputQPS <= serial.ThroughputQPS {
		t.Errorf("cooperative throughput %.4f q/s not above serial %.4f q/s",
			coop.ThroughputQPS, serial.ThroughputQPS)
	}
	// Overlap means both lanes are busy at once some of the time:
	// utilizations in serial mode are identical, in cooperative mode the
	// two lanes' busy time must coexist within the same (shorter)
	// makespan. On one replica, lane busy time summing past the makespan
	// is only possible if the lanes overlapped.
	if coop.Makespan >= serial.Makespan {
		t.Errorf("cooperative makespan %.2f not below serial %.2f", coop.Makespan, serial.Makespan)
	}
	if u := coop.SoCUtilization + coop.PIMUtilization; u <= 1 {
		t.Errorf("cooperative lanes never overlapped: SoC+PIM utilization %.3f, want > 1", u)
	}
}

// TestRelayoutHybridPaysForHandoffs: the hybrid baseline under the same
// two-lane scheduler loses throughput to FACIL's cooperative mode — the
// per-prefill re-layout both lengthens the SoC lane occupancy and stalls
// the PIM lane.
func TestRelayoutHybridPaysForHandoffs(t *testing.T) {
	s := servingSystem(t)
	run := func(mode Mode, kind engine.Kind) Metrics {
		cfg := simConfig(mode, kind, 2)
		cfg.Queries = 80
		m, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	coop := run(Cooperative, engine.FACIL)
	relay := run(RelayoutHybrid, engine.HybridStatic)
	if coop.ThroughputQPS <= relay.ThroughputQPS {
		t.Errorf("FACIL cooperative %.4f q/s not above relayout hybrid %.4f q/s",
			coop.ThroughputQPS, relay.ThroughputQPS)
	}
	if coop.TTFT.Mean >= relay.TTFT.Mean {
		t.Errorf("FACIL TTFT %.4f not below relayout hybrid %.4f",
			coop.TTFT.Mean, relay.TTFT.Mean)
	}
}

// TestReplicasScaleThroughput: at saturation, two replicas complete
// queries faster than one, and the second replica's SoC lane prefills
// while the first one's is busy.
func TestReplicasScaleThroughput(t *testing.T) {
	run := func(replicas int) ([]parsedEvent, Metrics) {
		cfg := simConfig(Cooperative, engine.FACIL, 50)
		cfg.Replicas = replicas
		cfg.Queries = 60
		return traceEventsOf(t, cfg)
	}
	_, one := run(1)
	evs, two := run(2)
	if two.ThroughputQPS <= one.ThroughputQPS {
		t.Errorf("2 replicas %.4f q/s not above 1 replica %.4f q/s",
			two.ThroughputQPS, one.ThroughputQPS)
	}
	var spans [2][][2]float64 // per replica: SoC-lane [start, end)
	for _, e := range evs {
		if e.Ph == "X" && e.TID == traceLaneSoC && e.PID < 2 {
			spans[e.PID] = append(spans[e.PID], [2]float64{e.TS, e.TS + e.Dur})
		}
	}
	overlap := false
	for _, a := range spans[0] {
		for _, b := range spans[1] {
			overlap = overlap || a[0] < b[1] && b[0] < a[1]
		}
	}
	if !overlap {
		t.Errorf("the two SoC lanes never prefilled at once (%d and %d spans)", len(spans[0]), len(spans[1]))
	}
}

// TestAdmissionControl: a bounded queue under overload rejects arrivals
// and the accounting identities hold.
func TestAdmissionControl(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 50)
	cfg.QueueCap = 4
	m, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected == 0 {
		t.Error("overloaded bounded queue rejected nothing")
	}
	if m.Arrived != m.Admitted+m.Rejected {
		t.Errorf("arrived %d != admitted %d + rejected %d", m.Arrived, m.Admitted, m.Rejected)
	}
	if m.Admitted != m.Completed+m.TimedOut {
		t.Errorf("admitted %d != completed %d + timed out %d", m.Admitted, m.Completed, m.TimedOut)
	}
	if m.MaxQueueDepth > cfg.QueueCap {
		t.Errorf("depth %d exceeded cap %d", m.MaxQueueDepth, cfg.QueueCap)
	}
}

// TestDeadlineGoodput: a tight TTLT SLO separates goodput from
// throughput; a loose one makes them equal.
func TestDeadlineGoodput(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 1.0)
	loose := cfg
	loose.DeadlineTTLT = 1e9
	ml, err := Run(s, loose)
	if err != nil {
		t.Fatal(err)
	}
	if ml.GoodputQPS != ml.ThroughputQPS || ml.SLOMet != ml.Completed {
		t.Errorf("loose SLO: goodput %.4f != throughput %.4f", ml.GoodputQPS, ml.ThroughputQPS)
	}
	tight := cfg
	tight.DeadlineTTLT = ml.TTLT.P50 // half the queries miss by construction
	mt, err := Run(s, tight)
	if err != nil {
		t.Fatal(err)
	}
	if mt.SLOMet >= mt.Completed {
		t.Errorf("tight SLO met by all %d completions", mt.Completed)
	}
	if mt.GoodputQPS >= mt.ThroughputQPS {
		t.Errorf("tight SLO: goodput %.4f not below throughput %.4f", mt.GoodputQPS, mt.ThroughputQPS)
	}
}

// TestTimeoutAborts: under overload with a hard timeout, some admitted
// queries are dropped at scheduling boundaries and never complete.
func TestTimeoutAborts(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 50)
	cfg.Timeout = 1.0
	m, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TimedOut == 0 {
		t.Error("no query timed out under overload")
	}
	if m.Admitted != m.Completed+m.TimedOut {
		t.Errorf("admitted %d != completed %d + timed out %d", m.Admitted, m.Completed, m.TimedOut)
	}
	for _, ttlt := range []float64{m.TTLT.P99} {
		if ttlt > 1e6 {
			t.Errorf("implausible TTLT %g with timeouts", ttlt)
		}
	}
}

// TestPreemptionRoundRobin: a 1-step quantum interleaves concurrent
// decodes. Run-to-completion parks a prefilled query behind whole other
// decodes, so its first inter-token gap is enormous; round-robin bounds
// that tail (at the price of later median completion), with total
// completions identical.
func TestPreemptionRoundRobin(t *testing.T) {
	s := servingSystem(t)
	run := func(quantum int) Metrics {
		cfg := simConfig(Cooperative, engine.FACIL, 50)
		cfg.Workload = fixedSpec(16, 32)
		cfg.Queries = 24
		cfg.preemptSteps = quantum
		m, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fine, coarse := run(1), run(1<<20)
	if fine.Completed != coarse.Completed {
		t.Fatalf("completions differ: %d vs %d", fine.Completed, coarse.Completed)
	}
	if fine.TBT.P99 >= coarse.TBT.P99 {
		t.Errorf("1-step quantum TBT p99 %.5f not below run-to-completion %.5f",
			fine.TBT.P99, coarse.TBT.P99)
	}
	// Run-to-completion finishes the first queries earlier (SJF-free
	// FCFS property): its median TTLT is lower.
	if fine.TTLT.P50 <= coarse.TTLT.P50 {
		t.Errorf("round-robin median TTLT %.4f not above run-to-completion %.4f",
			fine.TTLT.P50, coarse.TTLT.P50)
	}
}

// TestRunDeterminism: identical configs produce deeply equal Metrics —
// the arrival process and heap ordering are fully owned by the run.
func TestRunDeterminism(t *testing.T) {
	s := servingSystem(t)
	cfg := simConfig(Cooperative, engine.FACIL, 0.4)
	cfg.QueueCap = 16
	cfg.DeadlineTTLT = 5
	a, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestScaleBoundedTime is the O(n²)-regression guard: 50k queries flow
// through the serial and the cooperative simulator in bounded
// wall-clock time (a quadratic queue-depth scan took minutes).
func TestScaleBoundedTime(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-query scale run skipped in -short mode")
	}
	s := servingSystem(t)
	const n = 50000
	start := time.Now()
	for _, mode := range []Mode{Serial, Cooperative} {
		cfg := simConfig(mode, engine.FACIL, 5)
		cfg.Queries = n
		m, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Arrived != n || m.Completed != n || m.MaxQueueDepth < 1 {
			t.Errorf("%v accounting at scale: %+v", mode, m)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("50k-query runs took %v — queue bookkeeping is super-linear again", elapsed)
	}
}

// TestMetricsSanity: quantiles are finite and ordered, histograms span
// the makespan.
func TestMetricsSanity(t *testing.T) {
	s := servingSystem(t)
	m, err := Run(s, simConfig(Cooperative, engine.FACIL, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]stats.Quantiles{"TTFT": m.TTFT, "TTLT": m.TTLT, "TBT": m.TBT} {
		if !finite(q) {
			t.Errorf("%s quantiles not finite: %+v", name, q)
		}
	}
	if m.TTFT.P50 > m.TTFT.P95 || m.TTFT.P95 > m.TTFT.P99 {
		t.Errorf("TTFT quantiles unordered: %+v", m.TTFT)
	}
	if m.TTLT.Mean <= m.TTFT.Mean {
		t.Errorf("TTLT mean %.4f not above TTFT mean %.4f", m.TTLT.Mean, m.TTFT.Mean)
	}
	if got, want := m.QueueDepth.TotalTime(), m.Makespan; math.Abs(got-want) > 1e-6*(1+want) {
		t.Errorf("depth histogram spans %.6f, makespan %.6f", got, want)
	}
	if m.SoCUtilization <= 0 || m.SoCUtilization > 1 || m.PIMUtilization <= 0 || m.PIMUtilization > 1 {
		t.Errorf("utilizations out of range: %+v", m)
	}
}

// TestSimConfigValidation rejects degenerate scenarios (Run needs a
// generated run, so zero queries too) and accepts a host-fed config
// without an arrival rate (Inject supplies arrivals).
func TestSimConfigValidation(t *testing.T) {
	s := servingSystem(t)
	bad := []SimConfig{
		{ArrivalRate: 0, Queries: 10, Replicas: 1},
		{ArrivalRate: 1, Queries: 0, Replicas: 1},
		{ArrivalRate: 1, Queries: -1, Replicas: 1},
		{ArrivalRate: 1, Queries: 10, Replicas: 0},
		{ArrivalRate: 1, Queries: 10, Replicas: 1, QueueCap: -1},
		{ArrivalRate: 1, Queries: 10, Replicas: 1, Timeout: -2},
	}
	for _, cfg := range bad {
		if _, err := Run(s, cfg); err == nil {
			t.Errorf("config accepted: %+v", cfg)
		}
	}
	hostFed := SimConfig{Mode: Cooperative, Kind: engine.FACIL, Replicas: 1}
	if err := hostFed.Validate(); err != nil {
		t.Errorf("host-fed config with rate 0 rejected: %v", err)
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("bad mode parsed")
	}
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
}

// finite reports whether every quantile is a finite number.
func finite(q stats.Quantiles) bool {
	for _, v := range []float64{q.Mean, q.P50, q.P95, q.P99} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
