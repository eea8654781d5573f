package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Timing-invariant checks over randomized traffic: properties that must
// hold for any legal DRAM schedule.

func randomTraffic(spec Spec, n int, seed int64) []*Request {
	rng := rand.New(rand.NewSource(seed))
	g := spec.Geometry
	reqs := make([]*Request, n)
	var arrival int64
	for i := range reqs {
		reqs[i] = &Request{
			Addr: Addr{
				Channel: rng.Intn(g.Channels),
				Rank:    rng.Intn(g.RanksPerChannel),
				Bank:    rng.Intn(g.BanksPerRank),
				Row:     rng.Intn(g.Rows),
				Column:  rng.Intn(g.ColumnsPerRow()),
			},
			Write:   rng.Intn(3) == 0,
			Arrival: arrival,
		}
		if rng.Intn(4) == 0 {
			arrival += int64(rng.Intn(8))
		}
	}
	return reqs
}

// TestDataBusExclusive: per channel, the data-bus slots implied by the
// completion times never collide — one burst per cycle.
func TestDataBusExclusive(t *testing.T) {
	spec, err := LPDDR5("inv", 32, 6400, 2, 512<<20) // 2 channels
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomTraffic(spec, 3000, 11)
	ctl, err := NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := ctl.Channel(r.Addr.Channel).Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	drained(t, ctl)
	slots := map[int]map[int64]bool{}
	for _, r := range reqs {
		if r.Done <= 0 {
			t.Fatalf("request %v never completed", r.Addr)
		}
		// Reconstruct the data-bus cycle from the completion time.
		lat := int64(spec.Timing.CL)
		if r.Write {
			lat = int64(spec.Timing.CWL)
		}
		slot := r.Done - lat - int64(spec.Timing.TCCD)
		ch := r.Addr.Channel
		if slots[ch] == nil {
			slots[ch] = map[int64]bool{}
		}
		if slots[ch][slot] {
			t.Fatalf("channel %d: two bursts share data-bus cycle %d", ch, slot)
		}
		slots[ch][slot] = true
	}
}

// TestCompletionAfterArrival: no request finishes before its arrival plus
// the minimum pipeline latency.
func TestCompletionAfterArrival(t *testing.T) {
	spec, err := LPDDR5("inv2", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomTraffic(spec, 2000, 13)
	ctl, _ := NewController(spec)
	for _, r := range reqs {
		if err := ctl.Channel(r.Addr.Channel).Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	drained(t, ctl)
	for _, r := range reqs {
		min := r.Arrival + int64(spec.Timing.CWL) + int64(spec.Timing.TCCD)
		if !r.Write {
			min = r.Arrival + int64(spec.Timing.CL) + int64(spec.Timing.TCCD)
		}
		if r.Done < min {
			t.Fatalf("request done at %d before minimum %d", r.Done, min)
		}
	}
}

// TestStatsConservation: reads+writes equals the request count and
// hits+misses equals the data commands for any traffic mix.
func TestStatsConservation(t *testing.T) {
	f := func(seed int64, nSeed uint8) bool {
		spec, err := LPDDR5("inv3", 16, 6400, 2, 256<<20)
		if err != nil {
			t.Fatal(err)
		}
		n := int(nSeed)%500 + 10
		reqs := randomTraffic(spec, n, seed)
		ctl, err := NewController(spec)
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if err := ctl.Channel(r.Addr.Channel).Enqueue(r); err != nil {
				return false
			}
		}
		drained(t, ctl)
		s := ctl.Stats()
		return s.Reads+s.Writes == int64(n) && s.RowHits+s.RowMisses == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBankRowExclusiveUnderMACs: all-bank MACs never issue closer than
// the configured interval on a rank.
func TestBankRowExclusiveUnderMACs(t *testing.T) {
	spec, err := LPDDR5("inv4", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	if _, err := ch.AllBankACT(0, 0); err != nil {
		t.Fatal(err)
	}
	const interval = 5
	var last int64 = -1 << 62
	for i := 0; i < 64; i++ {
		at, err := ch.AllBankMAC(0, i, interval)
		if err != nil {
			t.Fatal(err)
		}
		if at-last < interval && last >= 0 {
			t.Fatalf("MACs %d apart, interval %d", at-last, interval)
		}
		last = at
	}
}

// TestDualRowBufferIsolation: with dual row buffers, PIM activity leaves
// the SoC-visible bank state untouched.
func TestDualRowBufferIsolation(t *testing.T) {
	spec, err := LPDDR5("inv5", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	// Open an SoC row via the queue.
	r1 := &Request{Addr: Addr{Bank: 0, Row: 7, Column: 0}}
	if err := ch.Enqueue(r1); err != nil {
		t.Fatal(err)
	}
	drained(t, ch)

	ch.SetDualRowBuffer(true)
	if _, err := ch.AllBankACT(0, 99); err != nil {
		t.Fatalf("dual-buffer ACT should not require SoC precharge: %v", err)
	}
	if _, err := ch.AllBankMAC(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	// A row-7 access in bank 0 must still be a row hit.
	r2 := &Request{Addr: Addr{Bank: 0, Row: 7, Column: 1}}
	if err := ch.Enqueue(r2); err != nil {
		t.Fatal(err)
	}
	before := ch.Stats().RowHits
	drained(t, ch)
	if got := ch.Stats().RowHits; got != before+1 {
		t.Errorf("SoC row evicted by dual-buffer PIM activity (hits %d -> %d)", before, got)
	}
}

// TestSingleRowBufferConflict: without dual buffers, an all-bank ACT on a
// bank with an open SoC row is rejected until precharge — the interference
// the co-scheduler must manage.
func TestSingleRowBufferConflict(t *testing.T) {
	spec, err := LPDDR5("inv6", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	if err := ch.Enqueue(&Request{Addr: Addr{Bank: 3, Row: 7}}); err != nil {
		t.Fatal(err)
	}
	drained(t, ch)
	if _, err := ch.AllBankACT(0, 99); err == nil {
		t.Fatal("all-bank ACT succeeded over an open SoC row")
	}
	if _, err := ch.AllBankPRE(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.AllBankACT(0, 99); err != nil {
		t.Fatalf("ACT after precharge failed: %v", err)
	}
}
