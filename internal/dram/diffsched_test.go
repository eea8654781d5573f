package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests pinning the optimized scheduler (Channel) against the
// retained reference implementation (ReferenceChannel) command-for-command:
// identical per-request Done cycles, identical clock, identical stats, for
// randomized streams across row policies, window sizes and refresh modes.

// Arrival pacings of diffStream. Channel rejects a request arriving
// before the last one taken while requests are queued, while the
// reference takes any order, so the out-of-order pacings test that rejection: the optimized
// scheduler must refuse exactly the early requests, and with those kept
// from the reference too, the two schedules must still agree.
const (
	// paceMonotone: arrivals never decrease (every request is taken).
	paceMonotone = iota
	// paceJitter: each arrival is jittered around the monotone clock,
	// so arrivals go backwards throughout.
	paceJitter
	// pacePhased: in order, then out of order from n/3 while the queue
	// still holds in-order entries, then in order again from n/2, where
	// runDifferential drains the queue empty, so its first request,
	// though earlier than the last one taken, is taken again.
	pacePhased
)

var paceNames = []string{"monotone", "jitter", "phased"}

// diffStream generates one randomized request stream. shape selects the
// address pattern; arrivals are paced so the stream mixes back-pressured
// and idle phases (exercising both the FR-FCFS window and the idle jump),
// and pace selects whether they may go backwards.
func diffStream(spec *Spec, shape string, pace, n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	g := spec.Geometry
	cols := g.ColumnsPerRow()
	reqs := make([]Request, n)
	var arrival int64
	hotRows := []int{rng.Intn(g.Rows), rng.Intn(g.Rows), rng.Intn(g.Rows)}
	for i := range reqs {
		var a Addr
		switch shape {
		case "sequential":
			lin := i
			a.Column = lin % cols
			lin /= cols
			a.Bank = lin % g.BanksPerRank
			lin /= g.BanksPerRank
			a.Rank = lin % g.RanksPerChannel
			lin /= g.RanksPerChannel
			a.Row = lin % g.Rows
		case "hotrow":
			// 80% of traffic hits three hot rows in two banks.
			if rng.Float64() < 0.8 {
				a.Row = hotRows[rng.Intn(len(hotRows))]
				a.Bank = rng.Intn(2)
			} else {
				a.Row = rng.Intn(g.Rows)
				a.Bank = rng.Intn(g.BanksPerRank)
			}
			a.Rank = rng.Intn(g.RanksPerChannel)
			a.Column = rng.Intn(cols)
		default: // "random"
			a.Rank = rng.Intn(g.RanksPerChannel)
			a.Bank = rng.Intn(g.BanksPerRank)
			a.Row = rng.Intn(g.Rows)
			a.Column = rng.Intn(cols)
		}
		// Pacing: mostly dense, with occasional gaps that let the queue
		// drain fully so the idle jump path fires.
		switch {
		case rng.Float64() < 0.02:
			arrival += int64(rng.Intn(5000))
		case rng.Float64() < 0.5:
			arrival += int64(rng.Intn(4))
		}
		reqs[i] = Request{
			Addr:    a,
			Write:   rng.Float64() < 0.3,
			Arrival: arrival,
		}
		if pace == paceJitter || (pace == pacePhased && i >= n/3 && i < n/2) {
			reqs[i].Arrival += int64(rng.Intn(48))
		}
	}
	return reqs
}

// diffFeed offers each request to the optimized scheduler and, when it
// takes it, to the reference. last is the arrival of the last request
// taken.
type diffFeed struct {
	opt  *Channel
	ref  *ReferenceChannel
	last int64
}

// enqueue offers or to the optimized scheduler and rr, its copy, to the
// reference. The optimized scheduler must reject or exactly when it
// arrives before the last request taken while requests are still
// queued, and a rejection must leave its queue and stats as they were.
func (f *diffFeed) enqueue(t testing.TB, or, rr *Request) {
	t.Helper()
	early := f.ref.Pending() > 0 && or.Arrival < f.last
	pending, stats := f.opt.Pending(), f.opt.Stats()
	err := f.opt.Enqueue(or)
	if early {
		if err == nil {
			t.Fatalf("arrival %d after a queued %d was taken", or.Arrival, f.last)
		}
		if f.opt.Pending() != pending || f.opt.Stats() != stats {
			t.Fatalf("rejected arrival %d changed the channel: pending %d -> %d", or.Arrival, pending, f.opt.Pending())
		}
		return
	}
	if err != nil {
		t.Fatalf("opt enqueue (arrival %d, last %d, %d queued): %v", or.Arrival, f.last, pending, err)
	}
	if err := f.ref.Enqueue(rr); err != nil {
		t.Fatalf("ref enqueue: %v", err)
	}
	f.last = or.Arrival
}

// runDifferential pumps the same stream through both schedulers in
// identical waves (bounding the reference's O(n) queues) and asserts
// bit-identical behavior on the requests the optimized scheduler takes.
// Halfway through the stream both queues are drained empty, so every
// stream also restarts from an empty queue. It also cross-checks
// HasReady against the reference's full-rescan PendingReady at every
// wave boundary.
func runDifferential(t *testing.T, spec *Spec, reqs []Request, policy RowPolicy, window int, refresh bool) {
	t.Helper()

	opt := NewChannel(spec)
	ref := NewReferenceChannel(spec)
	opt.SetRowPolicy(policy)
	ref.SetRowPolicy(policy)
	opt.SetWindow(window)
	ref.SetWindow(window)
	opt.SetRefreshEnabled(refresh)
	ref.SetRefreshEnabled(refresh)

	optReqs := make([]Request, len(reqs))
	refReqs := make([]Request, len(reqs))
	copy(optReqs, reqs)
	copy(refReqs, reqs)

	f := &diffFeed{opt: opt, ref: ref}
	const wave = 192
	const drainTo = 48
	for lo := 0; lo < len(reqs); lo += wave {
		hi := lo + wave
		if hi > len(reqs) {
			hi = len(reqs)
		}
		for i := lo; i < hi; i++ {
			if i == len(reqs)/2 {
				drainBounded(t, opt, 0)
				ref.Drain()
			}
			f.enqueue(t, &optReqs[i], &refReqs[i])
		}
		drainBounded(t, opt, drainTo)
		ref.DrainUpTo(drainTo)
		if opt.Now() != ref.Now() {
			t.Fatalf("clock diverged after wave at %d: opt=%d ref=%d", hi, opt.Now(), ref.Now())
		}
		if got, want := opt.HasReady(), ref.PendingReady() > 0; got != want {
			t.Fatalf("HasReady diverged after wave at %d: opt=%v ref=%d ready", hi, got, ref.PendingReady())
		}
	}
	optLast := drainBounded(t, opt, 0)
	refLast := ref.Drain()
	if optLast != refLast {
		t.Fatalf("final LastDone diverged: opt=%d ref=%d", optLast, refLast)
	}
	for i := range reqs {
		if optReqs[i].Done != refReqs[i].Done {
			t.Fatalf("request %d Done diverged: opt=%d ref=%d (addr=%+v write=%v arrival=%d)",
				i, optReqs[i].Done, refReqs[i].Done, reqs[i].Addr, reqs[i].Write, reqs[i].Arrival)
		}
	}
	if os, rs := opt.Stats(), ref.Stats(); os != rs {
		t.Fatalf("stats diverged:\nopt: %+v\nref: %+v", os, rs)
	}
}

// drainBounded drains c to at most n requests under DrainUpTo's step
// budget and returns its last completion cycle, so a livelocked
// scheduler fails the test instead of spinning.
func drainBounded(t testing.TB, c *Channel, n int) int64 {
	t.Helper()
	if err := c.DrainUpTo(n); err != nil {
		t.Fatal(err)
	}
	return c.Stats().LastDone
}

// TestDifferentialScheduler sweeps the full config cross-product. Each
// config and pacing sees >= 1e5 randomized requests in full mode (reduced
// under -short to keep the race-enabled CI run fast).
func TestDifferentialScheduler(t *testing.T) {
	spec := smallSpec()
	n := 100_000
	if testing.Short() {
		n = 8_000
	}
	shapes := []string{"sequential", "random", "hotrow"}
	for _, policy := range []RowPolicy{OpenRow, CloseRow} {
		for _, refresh := range []bool{true, false} {
			for _, window := range []int{1, 4, 32, 128} {
				for si, shape := range shapes {
					for pace, paceName := range paceNames {
						policy, refresh, window, shape, si, pace := policy, refresh, window, shape, si, pace
						name := fmt.Sprintf("policy=%d/refresh=%v/window=%d/%s", policy, refresh, window, shape)
						if pace != paceMonotone {
							name += "-" + paceName
						}
						t.Run(name, func(t *testing.T) {
							per := n / len(shapes)
							seed := int64(1000*si + window + 7 + 100_000*pace)
							if !refresh {
								seed += 31
							}
							reqs := diffStream(&spec, shape, pace, per, seed)
							runDifferential(t, &spec, reqs, policy, window, refresh)
						})
					}
				}
			}
		}
	}
}

// TestDifferentialStepInterleave drives both schedulers one StepOne at a
// time with enqueues interleaved mid-drain — the co-scheduler's usage
// pattern — checking clock and HasReady equivalence at every step.
func TestDifferentialStepInterleave(t *testing.T) {
	spec := smallSpec()
	reqs := diffStream(&spec, "hotrow", paceMonotone, 4_000, 99)
	opt := NewChannel(&spec)
	ref := NewReferenceChannel(&spec)

	optReqs := make([]Request, len(reqs))
	refReqs := make([]Request, len(reqs))
	copy(optReqs, reqs)
	copy(refReqs, reqs)

	next := 0
	rng := rand.New(rand.NewSource(5))
	for next < len(reqs) || opt.Pending() > 0 {
		if next < len(reqs) && (opt.Pending() == 0 || rng.Intn(3) == 0) {
			burst := 1 + rng.Intn(7)
			for j := 0; j < burst && next < len(reqs); j++ {
				if err := opt.Enqueue(&optReqs[next]); err != nil {
					t.Fatal(err)
				}
				if err := ref.Enqueue(&refReqs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		opt.StepOne()
		ref.StepOne()
		if opt.Now() != ref.Now() || opt.Pending() != ref.Pending() || opt.HasReady() != (ref.PendingReady() > 0) {
			t.Fatalf("step diverged at req %d: now %d/%d pending %d/%d ready %v/%d",
				next, opt.Now(), ref.Now(), opt.Pending(), ref.Pending(),
				opt.HasReady(), ref.PendingReady())
		}
	}
	for i := range reqs {
		if optReqs[i].Done != refReqs[i].Done {
			t.Fatalf("request %d Done diverged: opt=%d ref=%d", i, optReqs[i].Done, refReqs[i].Done)
		}
	}
	if os, rs := opt.Stats(), ref.Stats(); os != rs {
		t.Fatalf("stats diverged:\nopt: %+v\nref: %+v", os, rs)
	}
}

// TestSetWindowPanicsWhenQueued pins SetWindow's contract: the window is
// set before the first enqueue, and a queued channel refuses a resize. A
// channel drained back to empty may be resized again.
func TestSetWindowPanicsWhenQueued(t *testing.T) {
	spec := smallSpec()
	c := NewChannel(&spec)
	c.SetWindow(4)
	if err := c.EnqueueValue(Request{}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetWindow on a queued channel did not panic")
			}
		}()
		c.SetWindow(8)
	}()
	drained(t, c)
	c.SetWindow(8)
}

// FuzzSchedulerDifferential feeds fuzz-chosen interleavings of enqueue
// waves and partial drains through both schedulers. Repeated
// enqueue/drain cycles force the optimized scheduler's slot pool through
// free-list reuse — the queue "wraparound" states a single monotone drain
// never reaches.
// mode also picks the arrival pacing (mode/4): an out-of-order arrival
// must be rejected with an error (see diffFeed), and a drain byte below
// 4 empties the queue, after which an earlier arrival is taken again.
func FuzzSchedulerDifferential(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), []byte{40, 10, 80, 200, 5, 60})
	f.Add(int64(7), uint8(1), uint8(1), []byte{255, 0, 3, 3, 3, 128, 17})
	f.Add(int64(42), uint8(3), uint8(2), []byte{16, 16, 16, 16, 16, 16, 16, 16})
	f.Add(int64(3), uint8(4), uint8(2), []byte{90, 40, 120, 0, 60, 8, 200})
	f.Add(int64(11), uint8(8), uint8(1), []byte{60, 200, 60, 0, 120, 30, 90})
	f.Fuzz(func(t *testing.T, seed int64, mode, windowSel uint8, script []byte) {
		if len(script) == 0 || len(script) > 64 {
			t.Skip()
		}
		spec := smallSpec()
		shape := []string{"sequential", "random", "hotrow"}[int(mode)%3]
		pace := int(mode/4) % len(paceNames)
		window := []int{1, 4, 32, 128}[int(windowSel)%4]

		opt := NewChannel(&spec)
		ref := NewReferenceChannel(&spec)
		opt.SetWindow(window)
		ref.SetWindow(window)
		if mode%2 == 0 {
			opt.SetRowPolicy(CloseRow)
			ref.SetRowPolicy(CloseRow)
		}

		// The script alternates enqueue-wave sizes and drain targets.
		total := 0
		for _, b := range script {
			total += int(b)
		}
		if total == 0 {
			t.Skip()
		}
		reqs := diffStream(&spec, shape, pace, total, seed)
		optReqs := make([]Request, len(reqs))
		refReqs := make([]Request, len(reqs))
		copy(optReqs, reqs)
		copy(refReqs, reqs)

		f := &diffFeed{opt: opt, ref: ref}
		next := 0
		for i, b := range script {
			if i%2 == 0 {
				for j := 0; j < int(b) && next < len(reqs); j++ {
					f.enqueue(t, &optReqs[next], &refReqs[next])
					next++
				}
			} else {
				drainBounded(t, opt, int(b)/4)
				ref.DrainUpTo(int(b) / 4)
			}
			if opt.Now() != ref.Now() || opt.HasReady() != (ref.PendingReady() > 0) {
				t.Fatalf("diverged at script[%d]: now %d/%d ready %v/%d",
					i, opt.Now(), ref.Now(), opt.HasReady(), ref.PendingReady())
			}
		}
		drainBounded(t, opt, 0)
		ref.Drain()
		for i := 0; i < next; i++ {
			if optReqs[i].Done != refReqs[i].Done {
				t.Fatalf("request %d Done diverged: opt=%d ref=%d", i, optReqs[i].Done, refReqs[i].Done)
			}
		}
		if os, rs := opt.Stats(), ref.Stats(); os != rs {
			t.Fatalf("stats diverged:\nopt: %+v\nref: %+v", os, rs)
		}
	})
}
