package serve

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"facil/internal/engine"
)

// streamConfig is the host-fed sim shape the cluster router runs: a
// two-lane scheduler fed by Inject/InjectResume between AdvanceTo
// horizons. Workload, Queries and ArrivalRate stay zero — arrivals
// carry their own times and token lengths.
func streamConfig(replicas, queueCap int) SimConfig {
	return SimConfig{
		Mode:     Cooperative,
		Kind:     engine.FACIL,
		Replicas: replicas,
		QueueCap: queueCap,
	}
}

// drainStream seals a host-fed sim and steps it to exhaustion.
func drainStream(tb testing.TB, sim *Sim) Metrics {
	tb.Helper()
	sim.Seal()
	return drainSim(tb, sim)
}

// TestRetractConservation is the migration-flow identity on a two-sim
// fleet: queries retracted from a loaded source and resumed on an idle
// destination leave the source's books balanced (Admitted = Completed +
// TimedOut + Failed + Retracted), arrive exactly once at the
// destination, and every injected query completes somewhere.
func TestRetractConservation(t *testing.T) {
	s := servingSystem(t)
	src, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := src.Inject(float64(i)*0.05, 256, 64); err != nil {
			t.Fatal(err)
		}
	}
	src.Seal()
	dst.Seal()

	// Barrier loop: advance both sims in lockstep, steal up to two
	// queries per barrier — admission-queued first (free), prefilled
	// second (paying the handoff penalty), exactly the router's order.
	stolen, prefilled := 0, 0
	for barrier := 1.0; ; barrier++ {
		if barrier > 1e4 {
			t.Fatal("fleet never drained")
		}
		if err := src.AdvanceTo(barrier); err != nil {
			t.Fatal(err)
		}
		if err := dst.AdvanceTo(barrier); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			r, ok := src.Retract()
			if !ok {
				r, ok = src.RetractPrefilled()
			}
			if !ok {
				break
			}
			penalty := 0.0
			if r.Prefilled {
				penalty = 0.25
				prefilled++
			}
			if err := dst.InjectResume(barrier, r, penalty); err != nil {
				t.Fatal(err)
			}
			stolen++
		}
		if src.Pending() == 0 && dst.Pending() == 0 {
			break
		}
	}
	if stolen == 0 {
		t.Fatal("barrier loop never stole a query; the scenario is too light to test migration")
	}

	ms := src.Finish()
	md := dst.Finish()
	if ms.Retracted != stolen {
		t.Errorf("source retracted %d, stole %d", ms.Retracted, stolen)
	}
	if got := ms.Completed + ms.TimedOut + ms.Failed + ms.Retracted; got != ms.Admitted {
		t.Errorf("source identity: outcomes %d != admitted %d", got, ms.Admitted)
	}
	if md.Arrived != stolen || md.Admitted != stolen {
		t.Errorf("destination saw %d arrived / %d admitted, want %d both", md.Arrived, md.Admitted, stolen)
	}
	if md.Retracted != 0 {
		t.Errorf("destination retracted %d queries; nothing stole from it", md.Retracted)
	}
	if total := ms.Completed + md.Completed; total != n {
		t.Errorf("fleet completed %d of %d queries", total, n)
	}
}

// TestRetractPrefilledKeepsProgress pins the prefilled-retraction
// contract: the retracted record reports Prefilled with consistent
// decode progress, the source loses exactly that query, and a
// destination resumes it to completion under the handoff penalty.
func TestRetractPrefilledKeepsProgress(t *testing.T) {
	s := servingSystem(t)
	src, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := src.Inject(float64(i)*0.001, 128, 64); err != nil {
			t.Fatal(err)
		}
	}
	src.Seal()
	var r Retracted
	ok := false
	for barrier := 0.5; barrier < 200 && !ok; barrier += 0.5 {
		if err := src.AdvanceTo(barrier); err != nil {
			t.Fatal(err)
		}
		r, ok = src.RetractPrefilled()
	}
	if !ok {
		t.Fatal("no prefilled query ever became retractable; the decode queue never built")
	}
	if !r.Prefilled {
		t.Error("RetractPrefilled returned Prefilled=false")
	}
	if r.StepsDone < 0 || r.StepsDone > r.Decode-1 {
		t.Errorf("inconsistent decode progress %d of %d", r.StepsDone, r.Decode)
	}
	if r.Prefill != 128 || r.Decode != 64 {
		t.Errorf("retracted lengths %d/%d, want 128/64", r.Prefill, r.Decode)
	}

	dst, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.InjectResume(src.Now(), r, 0.25); err != nil {
		t.Fatal(err)
	}
	md := drainStream(t, dst)
	if md.Completed != 1 {
		t.Errorf("destination completed %d, want the one resumed query", md.Completed)
	}
	ms := drainStream(t, src)
	if ms.Completed != n-1 || ms.Retracted != 1 {
		t.Errorf("source completed %d retracted %d, want %d and 1", ms.Completed, ms.Retracted, n-1)
	}
}

// TestRetractionAPIValidation pins the guard rails: a generated sim is
// sealed against Inject but retracts like a host-fed one, and
// InjectResume rejects malformed resume records rather than corrupting
// the destination's books.
func TestRetractionAPIValidation(t *testing.T) {
	s := servingSystem(t)
	fixed, err := NewSim(s, simConfig(Cooperative, engine.FACIL, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := fixed.Inject(1, 64, 16); err == nil || !strings.Contains(err.Error(), "after Seal") {
		t.Errorf("Inject on a generated sim: %v, want the after-Seal error", err)
	}
	for {
		if _, ok := fixed.Retract(); ok {
			break
		}
		if more, err := fixed.Step(); err != nil || !more {
			t.Fatalf("generated sim never queued a retractable query (more=%v, err=%v)", more, err)
		}
	}
	if m := drainSim(t, fixed); m.Retracted != 1 || m.Admitted != m.Completed+m.TimedOut+m.Failed+m.Retracted {
		t.Errorf("generated sim after one Retract: %+v", m)
	}

	good := Retracted{Arrival: 0, Prefill: 64, Decode: 16}
	sim, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name    string
		at      float64
		r       Retracted
		penalty float64
	}{
		{"zero prefill", 1, Retracted{Prefill: 0, Decode: 16}, 0},
		{"zero decode", 1, Retracted{Prefill: 64, Decode: 0}, 0},
		{"progress without prefill", 1, Retracted{Prefill: 64, Decode: 16, StepsDone: 3}, 0},
		{"progress past the end", 1, Retracted{Prefill: 64, Decode: 16, StepsDone: 16, Prefilled: true}, 0.25},
		{"negative progress", 1, Retracted{Prefill: 64, Decode: 16, StepsDone: -1, Prefilled: true}, 0.25},
		{"negative penalty", 1, good, -1},
		{"NaN penalty", 1, good, math.NaN()},
		{"infinite penalty", 1, good, math.Inf(1)},
		{"NaN time", math.NaN(), good, 0},
		{"arrival after resume", 1, Retracted{Arrival: 2, Prefill: 64, Decode: 16}, 0},
	}
	for _, tc := range bad {
		if err := sim.InjectResume(tc.at, tc.r, tc.penalty); err == nil {
			t.Errorf("%s: InjectResume accepted %+v at %g penalty %g", tc.name, tc.r, tc.at, tc.penalty)
		}
	}
	// The sim stays usable after rejected resumes.
	if err := sim.InjectResume(1, good, 0); err != nil {
		t.Errorf("valid resume rejected after error cases: %v", err)
	}
	if m := drainStream(t, sim); m.Completed != 1 {
		t.Errorf("completed %d, want 1", m.Completed)
	}
}

// TestInjectValidation walks every Inject rejection, plus the
// behind-clock and out-of-order rejections InjectResume shares with it,
// and checks that the sim stays usable after each one: a rejected
// arrival leaves no trace in the arrival stream.
func TestInjectValidation(t *testing.T) {
	s := servingSystem(t)
	fixed, err := NewSim(s, simConfig(Cooperative, engine.FACIL, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fixed.Inject(1, 64, 16); err == nil {
		t.Error("Inject accepted an arrival on a generated (sealed) sim")
	}

	sealed, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sealed.Seal()
	if err := sealed.Inject(1, 64, 16); err == nil {
		t.Error("Inject accepted an arrival after Seal")
	}
	if err := sealed.InjectResume(1, Retracted{Arrival: 1, Prefill: 64, Decode: 16}, 0); err != nil {
		t.Errorf("InjectResume after a rejected Inject on a sealed sim: %v", err)
	}
	if m := drainStream(t, sealed); m.Completed != 1 {
		t.Errorf("sealed sim completed %d, want 1", m.Completed)
	}

	sim, err := NewSim(s, streamConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(1, 64, 16); err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	now := sim.Now()
	if now <= 1 {
		t.Fatalf("clock %g did not move past the first arrival", now)
	}
	behind := (1 + now) / 2 // at or after the last arrival, behind the clock
	later, sooner := now+10, now+5
	if err := sim.Inject(later, 64, 16); err != nil {
		t.Fatal(err)
	}
	good := Retracted{Arrival: 0, Prefill: 64, Decode: 16}
	bad := []struct {
		name, want string
		inject     func() error
	}{
		{"zero prefill", "positive", func() error { return sim.Inject(later, 0, 16) }},
		{"zero decode", "positive", func() error { return sim.Inject(later, 64, 0) }},
		{"NaN time", "behind the clock", func() error { return sim.Inject(math.NaN(), 64, 16) }},
		{"+Inf time", "behind the clock", func() error { return sim.Inject(math.Inf(1), 64, 16) }},
		{"-Inf time", "behind the clock", func() error { return sim.Inject(math.Inf(-1), 64, 16) }},
		{"behind the clock", "behind the clock", func() error { return sim.Inject(behind, 64, 16) }},
		{"out of order", "time-ordered", func() error { return sim.Inject(sooner, 64, 16) }},
		{"resume behind the clock", "behind the clock", func() error { return sim.InjectResume(behind, good, 0) }},
		{"resume out of order", "time-ordered", func() error { return sim.InjectResume(sooner, good, 0) }},
	}
	for _, tc := range bad {
		err := tc.inject()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// The sim stays usable: a valid arrival at the last accepted
		// time still goes in.
		if err := sim.Inject(later, 64, 16); err != nil {
			t.Errorf("%s: valid Inject rejected after the error: %v", tc.name, err)
		}
	}
	if err := sim.InjectResume(later, good, 0); err != nil {
		t.Errorf("valid resume rejected after the error cases: %v", err)
	}
	if m := drainStream(t, sim); m.Completed != 3+len(bad) {
		t.Errorf("completed %d, want %d", m.Completed, 3+len(bad))
	}
}

// TestRetractSteadyStateZeroAllocs gates allocations on the barrier-time
// steal path: once a host-fed sim is warm, the router's per-barrier reads
// (Probe) and retractions must not allocate — the re-route phase runs
// inside the serial barrier window on every sync interval.
func TestRetractSteadyStateZeroAllocs(t *testing.T) {
	s := servingSystem(t)
	sim, err := NewSim(s, streamConfig(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		if err := sim.Inject(float64(i)*0.001, 64, 16); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.AdvanceTo(1.0); err != nil {
		t.Fatal(err)
	}
	m := sim.Counters()
	if in := m.Admitted - m.Completed - m.TimedOut - m.Failed - m.Retracted; in < 300 {
		t.Fatalf("only %d queries in system after warmup; backlog too shallow to measure", in)
	}
	starved := false
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 20; i++ {
			_ = sim.Probe()
			if _, ok := sim.Retract(); !ok {
				starved = true
				return
			}
		}
	})
	if starved {
		t.Fatal("admission queue drained during measurement; grow the injected backlog")
	}
	if avg != 0 {
		t.Errorf("barrier steal path allocates %.1f times per 20 retractions, want 0", avg)
	}
	drainStream(t, sim)
}

// FuzzStreamRetract drives a randomized two-sim migration schedule and
// checks the conservation identities survive arbitrary mixes of queue
// caps, steal rates and token lengths: per-sim books balance and every
// injected query reaches exactly one terminal outcome fleet-wide.
func FuzzStreamRetract(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(2), uint8(0))
	f.Add(int64(7), uint8(50), uint8(1), uint8(4))
	f.Add(int64(3), uint8(10), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, perRaw, capRaw uint8) {
		n := 1 + int(nRaw)%60
		stealPer := int(perRaw) % 4
		queueCap := int(capRaw) % 12
		s := servingSystem(t)
		src, err := NewSim(s, streamConfig(1, queueCap))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewSim(s, streamConfig(1, queueCap))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		at := 0.0
		for i := 0; i < n; i++ {
			at += rng.Float64() * 0.1
			if err := src.Inject(at, 1+rng.Intn(256), 1+rng.Intn(64)); err != nil {
				t.Fatal(err)
			}
		}
		src.Seal()
		dst.Seal()
		stolen := 0
		for barrier := 1.0; ; barrier++ {
			if barrier > 1e5 {
				t.Fatal("fleet never drained")
			}
			if err := src.AdvanceTo(barrier); err != nil {
				t.Fatal(err)
			}
			if err := dst.AdvanceTo(barrier); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < stealPer; k++ {
				r, ok := src.Retract()
				if !ok {
					r, ok = src.RetractPrefilled()
				}
				if !ok {
					break
				}
				penalty := 0.0
				if r.Prefilled {
					penalty = 0.25
				}
				if err := dst.InjectResume(barrier, r, penalty); err != nil {
					t.Fatal(err)
				}
				stolen++
			}
			if src.Pending() == 0 && dst.Pending() == 0 {
				break
			}
		}
		ms := src.Finish()
		md := dst.Finish()
		if ms.Retracted != stolen {
			t.Errorf("source retracted %d, stole %d", ms.Retracted, stolen)
		}
		if md.Arrived != stolen {
			t.Errorf("destination arrivals %d != stolen %d", md.Arrived, stolen)
		}
		for _, side := range []struct {
			name string
			m    Metrics
		}{{"src", ms}, {"dst", md}} {
			m := side.m
			if m.Arrived != m.Admitted+m.Rejected {
				t.Errorf("%s: arrived %d != admitted %d + rejected %d", side.name, m.Arrived, m.Admitted, m.Rejected)
			}
			if got := m.Completed + m.TimedOut + m.Failed + m.Retracted; got != m.Admitted {
				t.Errorf("%s: outcomes %d != admitted %d", side.name, got, m.Admitted)
			}
		}
		terminal := ms.Completed + ms.TimedOut + ms.Failed + ms.Rejected +
			md.Completed + md.TimedOut + md.Failed + md.Rejected
		if terminal != n {
			t.Errorf("fleet terminal outcomes %d != injected %d", terminal, n)
		}
	})
}
