package dram

import (
	"math/rand"
	"testing"
)

// smallSpec returns a compact spec for fast unit tests. The arguments
// are known-good, so the constructor error is impossible; a regression
// there fails the first test that validates the zero spec.
// drained drains d, failing the test when the drain exceeds its
// livelock step budget, and returns the last completion cycle.
func drained(tb testing.TB, d interface{ Drain() (int64, error) }) int64 {
	tb.Helper()
	done, err := d.Drain()
	if err != nil {
		tb.Fatal(err)
	}
	return done
}

func smallSpec() Spec {
	s, _ := LPDDR5("test LPDDR5 1ch", 16, 6400, 2, 256*1<<20) // 1 channel, 256 MiB
	return s
}

func TestSequentialReadsSaturateBus(t *testing.T) {
	spec := smallSpec()
	ctl, err := NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctl.SetRefreshEnabled(false)
	// Stream whole rows across banks: row-hit heavy, should approach
	// one burst per cycle.
	n := 0
	for bank := 0; bank < 4; bank++ {
		for col := 0; col < 64; col++ {
			req := &Request{Addr: Addr{Bank: bank, Row: 0, Column: col}}
			if err := ctl.Channel(0).Enqueue(req); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	done := drained(t, ctl)
	// Lower bound: n bursts need >= n cycles plus one tRCD pipeline fill.
	if done < int64(n) {
		t.Fatalf("completed in %d cycles for %d bursts: too fast", done, n)
	}
	// Efficiency: with open rows in 4 banks the bus should be > 85% busy.
	eff := float64(n) / float64(done)
	if eff < 0.85 {
		t.Errorf("sequential read efficiency %.2f, want > 0.85 (cycles=%d)", eff, done)
	}
}

func TestRowConflictsSlowDown(t *testing.T) {
	spec := smallSpec()
	mk := func(rowStride int) int64 {
		ctl, _ := NewController(spec)
		ctl.SetRefreshEnabled(false)
		for i := 0; i < 256; i++ {
			req := &Request{Addr: Addr{Bank: 0, Row: (i * rowStride) % spec.Geometry.Rows, Column: i % 64}}
			if err := ctl.Channel(0).Enqueue(req); err != nil {
				t.Fatal(err)
			}
		}
		return drained(t, ctl)
	}
	sameRow := mk(0)
	conflict := mk(1) // every access a new row in the same bank
	if conflict <= sameRow*2 {
		t.Errorf("row conflicts not penalized: same-row %d cycles, conflicts %d", sameRow, conflict)
	}
}

func TestRowHitClassification(t *testing.T) {
	spec := smallSpec()
	ctl, _ := NewController(spec)
	ctl.SetRefreshEnabled(false)
	for col := 0; col < 8; col++ {
		if err := ctl.Channel(0).Enqueue(&Request{Addr: Addr{Bank: 0, Row: 5, Column: col}}); err != nil {
			t.Fatal(err)
		}
	}
	drained(t, ctl)
	s := ctl.Stats()
	if s.RowMisses != 1 {
		t.Errorf("RowMisses = %d, want 1 (first access opens the row)", s.RowMisses)
	}
	if s.RowHits != 7 {
		t.Errorf("RowHits = %d, want 7", s.RowHits)
	}
	if s.Activations != 1 {
		t.Errorf("Activations = %d, want 1", s.Activations)
	}
}

func TestWriteReadTurnaroundPenalty(t *testing.T) {
	spec := smallSpec()
	run := func(alternate bool) int64 {
		ctl, _ := NewController(spec)
		ctl.SetRefreshEnabled(false)
		ctl.Channel(0).SetWindow(1) // strict FCFS so the pattern is preserved
		for i := 0; i < 64; i++ {
			w := false
			if alternate {
				w = i%2 == 1
			}
			if err := ctl.Channel(0).Enqueue(&Request{
				Addr:  Addr{Bank: 0, Row: 0, Column: i},
				Write: w,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return drained(t, ctl)
	}
	readsOnly := run(false)
	alternating := run(true)
	if alternating <= readsOnly {
		t.Errorf("read/write turnaround free: reads-only %d, alternating %d", readsOnly, alternating)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	spec := smallSpec()
	ctl, _ := NewController(spec)
	ctl.SetRefreshEnabled(false)
	ch := ctl.Channel(0)
	// Open row 0 via a first request, then enqueue a conflicting
	// request (row 1) ahead of more row-0 hits. FR-FCFS should finish
	// the hits before closing the row.
	reqs := []*Request{
		{Addr: Addr{Bank: 0, Row: 0, Column: 0}},
		{Addr: Addr{Bank: 0, Row: 1, Column: 0}},
		{Addr: Addr{Bank: 0, Row: 0, Column: 1}},
		{Addr: Addr{Bank: 0, Row: 0, Column: 2}},
	}
	for _, r := range reqs {
		if err := ch.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	drained(t, ch)
	if !(reqs[2].Done < reqs[1].Done && reqs[3].Done < reqs[1].Done) {
		t.Errorf("row hits not prioritized: done cycles = %d,%d,%d,%d",
			reqs[0].Done, reqs[1].Done, reqs[2].Done, reqs[3].Done)
	}
	s := ch.Stats()
	if s.RowHits != 2 {
		t.Errorf("RowHits = %d, want 2", s.RowHits)
	}
}

func TestRefreshOverheadVisible(t *testing.T) {
	spec := smallSpec()
	run := func(refresh bool) int64 {
		ctl, _ := NewController(spec)
		ctl.SetRefreshEnabled(refresh)
		// Enough traffic to span several tREFI windows.
		n := spec.Timing.TREFI * 4
		for i := 0; i < n; i++ {
			if err := ctl.Channel(0).Enqueue(&Request{Addr: Addr{
				Bank:   i % 16,
				Row:    (i / 1024) % spec.Geometry.Rows,
				Column: i % 64,
			}}); err != nil {
				t.Fatal(err)
			}
		}
		return drained(t, ctl)
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Errorf("refresh has no cost: with=%d without=%d", with, without)
	}
}

func TestArrivalTimesRespected(t *testing.T) {
	spec := smallSpec()
	ctl, _ := NewController(spec)
	ctl.SetRefreshEnabled(false)
	late := &Request{Addr: Addr{Bank: 0, Row: 0, Column: 0}, Arrival: 10_000}
	if err := ctl.Channel(0).Enqueue(late); err != nil {
		t.Fatal(err)
	}
	drained(t, ctl)
	if late.Done < 10_000 {
		t.Errorf("request completed at %d before its arrival 10000", late.Done)
	}
}

func TestEnqueueRejectsOutOfRange(t *testing.T) {
	spec := smallSpec()
	ctl, _ := NewController(spec)
	bad := []Addr{
		{Channel: 5},
		{Bank: 99},
		{Row: spec.Geometry.Rows},
		{Column: 64},
		{Rank: 2},
	}
	for _, a := range bad {
		if err := ctl.EnqueueValue(Request{Addr: a}); err == nil {
			t.Errorf("address %v accepted", a)
		}
	}
}

// TestEnqueueRejectsEarlierArrival pins the in-order contract on every
// enqueue path: while requests are queued, one arriving before the last
// request taken is rejected with an error and leaves the queue and
// stats as they were, and an equal arrival is taken. A queue drained
// empty takes an earlier arrival again.
func TestEnqueueRejectsEarlierArrival(t *testing.T) {
	spec := smallSpec()
	paths := []struct {
		name    string
		enqueue func(ctl *Controller, r Request) error
	}{
		{"Channel.Enqueue", func(ctl *Controller, r Request) error { return ctl.Channel(0).Enqueue(&r) }},
		{"Channel.EnqueueValue", func(ctl *Controller, r Request) error { return ctl.Channel(0).EnqueueValue(r) }},
		{"Controller.EnqueueValue", func(ctl *Controller, r Request) error { return ctl.EnqueueValue(r) }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ctl, err := NewController(spec)
			if err != nil {
				t.Fatal(err)
			}
			c := ctl.Channel(0)
			take := func(at int64) {
				t.Helper()
				if err := p.enqueue(ctl, Request{Addr: Addr{Bank: 1, Row: 2}, Arrival: at}); err != nil {
					t.Fatalf("arrival %d rejected: %v", at, err)
				}
			}
			reject := func(at int64) {
				t.Helper()
				pending, stats := c.Pending(), c.Stats()
				if err := p.enqueue(ctl, Request{Addr: Addr{Bank: 2}, Arrival: at}); err == nil {
					t.Fatalf("arrival %d taken behind a queued 250", at)
				}
				if c.Pending() != pending || c.Stats() != stats {
					t.Fatalf("rejected arrival %d changed the channel: pending %d -> %d, stats %+v -> %+v",
						at, pending, c.Pending(), stats, c.Stats())
				}
			}
			take(100)
			take(250)
			reject(249)
			reject(0)
			take(250)
			// A partly drained queue still holds the last request taken.
			if err := c.DrainUpTo(1); err != nil {
				t.Fatal(err)
			}
			reject(100)
			drained(t, c)
			if got := c.Stats().Reads; got != 3 {
				t.Fatalf("%d reads completed, want the 3 requests taken", got)
			}
			take(0)
			if c.Pending() != 1 {
				t.Fatalf("pending %d after the drained queue took arrival 0, want 1", c.Pending())
			}
		})
	}
}

func TestRandomTrafficCompletesAndCounts(t *testing.T) {
	spec := smallSpec()
	ctl, _ := NewController(spec)
	rng := rand.New(rand.NewSource(42))
	g := spec.Geometry
	const n = 2000
	var wantReads, wantWrites int64
	for i := 0; i < n; i++ {
		w := rng.Intn(2) == 0
		if w {
			wantWrites++
		} else {
			wantReads++
		}
		if err := ctl.Channel(0).Enqueue(&Request{
			Addr: Addr{
				Rank:   rng.Intn(g.RanksPerChannel),
				Bank:   rng.Intn(g.BanksPerRank),
				Row:    rng.Intn(g.Rows),
				Column: rng.Intn(g.ColumnsPerRow()),
			},
			Write: w,
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := drained(t, ctl)
	s := ctl.Stats()
	if s.Reads != wantReads || s.Writes != wantWrites {
		t.Errorf("reads/writes = %d/%d, want %d/%d", s.Reads, s.Writes, wantReads, wantWrites)
	}
	if s.RowHits+s.RowMisses != n {
		t.Errorf("hits+misses = %d, want %d", s.RowHits+s.RowMisses, n)
	}
	if done <= 0 {
		t.Error("no completion cycle recorded")
	}
	if s.LastDone != done {
		t.Errorf("LastDone %d != Drain result %d", s.LastDone, done)
	}
}

func TestMeasureStreamBandwidth(t *testing.T) {
	spec := smallSpec()
	var reqs []Request
	// Sequential physical stream under the conventional
	// row:rank:column:bank:channel mapping: consecutive 2 KB segments
	// land in consecutive banks of the same row, letting the scheduler
	// overlap the next bank's activation with the current data burst.
	// Should land near peak per-channel bandwidth (12.8 GB/s).
	for row := 0; row < 4; row++ {
		for bank := 0; bank < 16; bank++ {
			for col := 0; col < 64; col++ {
				reqs = append(reqs, Request{Addr: Addr{Bank: bank, Row: row, Column: col}})
			}
		}
	}
	res, err := MeasureStream(spec, SliceSource(reqs), 0)
	if err != nil {
		t.Fatal(err)
	}
	peak := spec.PeakBandwidthGBs()
	if res.BandwidthGBs < 0.85*peak {
		t.Errorf("sequential stream bandwidth %.2f GB/s < 85%% of peak %.2f", res.BandwidthGBs, peak)
	}
	if res.RowHitRate < 0.9 {
		t.Errorf("row hit rate %.2f, want > 0.9", res.RowHitRate)
	}
}

func TestCloseRowPolicyHelpsRandomTraffic(t *testing.T) {
	spec := smallSpec()
	run := func(policy RowPolicy, random bool) int64 {
		ctl, _ := NewController(spec)
		ctl.SetRefreshEnabled(false)
		ctl.Channel(0).SetRowPolicy(policy)
		rng := rand.New(rand.NewSource(21))
		g := spec.Geometry
		for i := 0; i < 1024; i++ {
			a := Addr{Bank: i % g.BanksPerRank, Row: i / 64 % g.Rows, Column: i % 64}
			if random {
				a = Addr{
					Rank:   rng.Intn(g.RanksPerChannel),
					Bank:   rng.Intn(g.BanksPerRank),
					Row:    rng.Intn(g.Rows),
					Column: rng.Intn(g.ColumnsPerRow()),
				}
			}
			if err := ctl.Channel(0).Enqueue(&Request{Addr: a}); err != nil {
				t.Fatal(err)
			}
		}
		return drained(t, ctl)
	}
	// Random traffic: close-row hides precharge latency.
	openRandom := run(OpenRow, true)
	closeRandom := run(CloseRow, true)
	if closeRandom >= openRandom {
		t.Errorf("close-row no better on random traffic: open=%d close=%d", openRandom, closeRandom)
	}
	// Sequential traffic: close-row must not destroy row hits (visible
	// requests to the open row suppress the auto-precharge).
	openSeq := run(OpenRow, false)
	closeSeq := run(CloseRow, false)
	if closeSeq > openSeq*11/10 {
		t.Errorf("close-row hurt sequential traffic too much: open=%d close=%d", openSeq, closeSeq)
	}
}
