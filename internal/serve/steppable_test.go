package serve

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"facil/internal/engine"
	"facil/internal/workload"
)

// stepCfg is a small two-lane scenario exercising admission bounds,
// retries and preemption — enough machinery that a divergence between
// Run and the stepped loop would show.
func stepCfg() SimConfig {
	return SimConfig{
		Mode: Cooperative, Kind: engine.FACIL,
		Replicas: 2, ArrivalRate: 2, Queries: 40,
		Workload: workload.AlpacaSpec(), Seed: 7,
		QueueCap: 8, DeadlineTTLT: 20, MaxRetries: 2,
	}
}

// TestSteppedRunMatchesRun drives a Sim one event at a time and asserts
// the Metrics are identical to the one-shot Run of the same config —
// stepping changes who turns the crank, not what happens.
func TestSteppedRunMatchesRun(t *testing.T) {
	s := servingSystem(t)
	want, err := Run(s, stepCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sim, err := NewSim(s, stepCfg())
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	steps := 0
	var lastNow float64
	for {
		more, err := sim.Step()
		if err != nil {
			t.Fatalf("Step %d: %v", steps, err)
		}
		if !more {
			break
		}
		steps++
		if now := sim.Now(); now < lastNow {
			t.Fatalf("virtual clock went backwards: %g after %g", now, lastNow)
		} else {
			lastNow = now
		}
	}
	if steps == 0 {
		t.Fatal("no events stepped")
	}
	got := sim.Finish()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stepped metrics diverge from Run:\n got %+v\nwant %+v", got, want)
	}
	if sim.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", sim.Pending())
	}
}

// TestLiveCountersAdvance pins the Live counter wiring: a run moves the
// global counters by exactly its own Metrics accounting.
func TestLiveCountersAdvance(t *testing.T) {
	s := servingSystem(t)
	before := Live.Snapshot()
	m, err := Run(s, stepCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	after := Live.Snapshot()
	// Other tests may run concurrently under -parallel; counters are
	// monotonic, so deltas are at least this run's contribution.
	if d := after.Completed - before.Completed; d < int64(m.Completed) {
		t.Errorf("Completed advanced by %d, want >= %d", d, m.Completed)
	}
	if d := after.Arrived - before.Arrived; d < int64(m.Arrived) {
		t.Errorf("Arrived advanced by %d, want >= %d", d, m.Arrived)
	}
	if d := after.RunsFinished - before.RunsFinished; d < 1 {
		t.Errorf("RunsFinished advanced by %d, want >= 1", d)
	}
	if d := after.Events - before.Events; d <= 0 {
		t.Errorf("Events advanced by %d, want > 0", d)
	}
	if d := after.VirtualSeconds - before.VirtualSeconds; d < m.Makespan*0.99 {
		t.Errorf("VirtualSeconds advanced by %g, want >= makespan %g", d, m.Makespan)
	}
}

// TestEventQueueOrder interleaves random pushes and pops and checks the
// heap hands events back in (at, seq) order — the reference's order —
// across heavy timestamp ties and the extreme values a far-future fault
// stream can produce (0, 1e300, MaxFloat64, +Inf).
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ats := []float64{0, 1, 2.5, 2.5, 3, 1e300, math.MaxFloat64, math.Inf(1)}
	byOrder := func(evs []event) func(a, b int) bool {
		return func(a, b int) bool { return evs[a].before(&evs[b]) }
	}
	var q eventQueue
	var live []event // pushed but not yet popped
	check := func() {
		t.Helper()
		sort.Slice(live, byOrder(live))
		if got := q.pop(); got != live[0] {
			t.Fatalf("pop = (%g, %d), want (%g, %d)", got.at, got.seq, live[0].at, live[0].seq)
		}
		live = live[1:]
	}
	for seq := int64(0); seq < 4000; seq++ {
		ev := event{at: ats[rng.Intn(len(ats))], seq: seq}
		if rng.Intn(2) == 0 {
			ev.at = float64(rng.Intn(20)) / 4
		}
		q.push(ev)
		live = append(live, ev)
		for len(live) > 0 && rng.Intn(2) == 0 {
			check()
		}
	}
	for len(live) > 0 {
		check()
	}
	if len(q) != 0 {
		t.Errorf("%d events left after popping every push", len(q))
	}
}

// Now returns the simulation's virtual clock in seconds.
func (s *Sim) Now() float64 { return s.sm.now }

// Pending returns the number of scheduled events not yet processed:
// arrivals still to stream (in the arrival FIFO, or a generated run's
// still to enter it) plus queued events (including tail fault events
// that Step will discard).
func (s *Sim) Pending() int {
	sm := s.sm
	n := len(sm.evs)
	for qi := sm.arr.head; qi >= 0; qi = sm.qs[qi].next {
		n++
	}
	return n + len(sm.gen) - sm.genNext
}

// eventCount returns the number of events the sim has processed. One
// Step may process several (uncontended decode quanta run in place), so
// the lockstep differential steps the reference this many times.
func (s *Sim) eventCount() int64 { return s.sm.events }
