package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkPrep recomputes the prep set from bank and queue state and holds
// the channel's cached records to it: a bank has a record exactly when
// it has visible work and no visible entry on its open row, and the
// record equals a fresh fill.
func checkPrep(t *testing.T, c *Channel, at string) {
	t.Helper()
	if c.bankHead == nil {
		return
	}
	records := 0
	for b := range c.bankHead {
		bk := c.bankLoc[b].b
		hasWork, hasHit := false, false
		for s := c.bankHead[b]; s != noSlot; s = c.slots[s].bnext {
			sl := &c.slots[s]
			hasWork = true
			hasHit = hasHit || bk.state == bankActive && sl.req.Addr.Row == bk.openRow
		}
		i := c.prepPos[b]
		if want := hasWork && !hasHit; want != (i >= 0) {
			t.Fatalf("%s: bank %d has a prep record %v, want %v", at, b, i >= 0, want)
		}
		if i < 0 {
			continue
		}
		records++
		got := c.prep[i]
		h := &c.slots[c.bankHead[b]]
		want := prepRec{
			floor:   bk.nextPRE,
			arrival: h.req.Arrival,
			pos:     h.pos,
			head:    c.bankHead[b],
			bank:    int32(b),
			rank:    int32(b / c.spec.Geometry.BanksPerRank),
		}
		if bk.state != bankActive {
			want.floor, want.act = bk.nextACT, true
		}
		if got != want {
			t.Fatalf("%s: bank %d prep record %+v, fresh %+v", at, b, got, want)
		}
	}
	if records != len(c.prep) {
		t.Fatalf("%s: %d prep records, %d banks want one", at, len(c.prep), records)
	}
}

// prepHarness drives one channel and checks its prep records after
// every command. last is the arrival of the last request taken.
type prepHarness struct {
	t    *testing.T
	c    *Channel
	n    int
	last int64
}

func (h *prepHarness) check(what string) {
	h.t.Helper()
	h.n++
	checkPrep(h.t, h.c, fmt.Sprintf("op %d (%s)", h.n, what))
}

// enqueue offers r to the channel, which must reject it exactly when it
// arrives before the last request taken while requests are queued.
func (h *prepHarness) enqueue(r Request) {
	h.t.Helper()
	early := h.c.Pending() > 0 && r.Arrival < h.last
	if err := h.c.EnqueueValue(r); (err != nil) != early {
		h.t.Fatalf("enqueue of arrival %d after %d: err %v, want rejected %v", r.Arrival, h.last, err, early)
	}
	if !early {
		h.last = r.Arrival
	}
	h.check("enqueue")
}

func (h *prepHarness) steps(n int) {
	h.t.Helper()
	for i := 0; i < n && h.c.Pending() > 0; i++ {
		h.c.StepOne()
		h.check("step")
	}
}

func (h *prepHarness) do(what string, fn func() error) {
	h.t.Helper()
	if err := fn(); err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
	h.check(what)
}

// TestPrepRecordsFresh holds the prep records to a
// fresh recompute after every enqueue, command, refresh and all-bank
// operation: queue picks under both row policies (with refresh, and
// with pacings whose out-of-order arrivals the channel rejects), PIM
// all-bank ACT/MAC/PRE on a single row buffer with SoC traffic queued,
// and AllBankPasses on both its lock-step and its command-loop path.
func TestPrepRecordsFresh(t *testing.T) {
	spec := smallSpec()
	g := spec.Geometry
	for _, policy := range []RowPolicy{OpenRow, CloseRow} {
		for pace, paceName := range paceNames {
			t.Run(fmt.Sprintf("policy=%d/%s", policy, paceName), func(t *testing.T) {
				h := &prepHarness{t: t, c: NewChannel(&spec)}
				h.c.SetRowPolicy(policy)
				h.c.SetWindow(8)
				reqs := diffStream(&spec, "hotrow", pace, 3000, int64(40+pace))
				rng := rand.New(rand.NewSource(int64(pace)))
				for i := 0; i < len(reqs); {
					for burst := 1 + rng.Intn(12); burst > 0 && i < len(reqs); burst-- {
						h.enqueue(reqs[i])
						i++
					}
					h.steps(rng.Intn(16))
				}
				h.steps(1 << 30)
				if h.c.Stats().Refreshes == 0 {
					t.Fatal("no refresh fired: the stream never crossed tREFI")
				}
			})
		}
	}

	t.Run("allbank", func(t *testing.T) {
		h := &prepHarness{t: t, c: NewChannel(&spec)}
		rng := rand.New(rand.NewSource(9))
		// soc queues n random requests arriving from cycle at on, in
		// order.
		soc := func(n int, at int64) {
			at = max(at, h.last)
			for i := 0; i < n; i++ {
				at += int64(rng.Intn(8))
				h.enqueue(Request{Addr: Addr{
					Rank:   rng.Intn(g.RanksPerChannel),
					Bank:   rng.Intn(g.BanksPerRank),
					Row:    rng.Intn(g.Rows),
					Column: rng.Intn(g.ColumnsPerRow()),
				}, Arrival: at})
			}
		}
		// Lock-step path: the banks start idle and equal.
		soc(24, 0)
		h.do("AllBankPasses", func() error { return h.c.AllBankPasses(7, 6, 40, 2) })
		h.steps(20)
		for round := 0; round < 4; round++ {
			soc(24, h.c.Now())
			h.steps(6)
			for rk := range h.c.ranks {
				h.do("AllBankPRE", func() error { _, err := h.c.AllBankPRE(rk); return err })
			}
			for rk := range h.c.ranks {
				h.do("AllBankACT", func() error { _, err := h.c.AllBankACT(rk, 100+round); return err })
			}
			for m := 0; m < 30; m++ {
				rk := m % len(h.c.ranks)
				h.do("AllBankMAC", func() error { _, err := h.c.AllBankMAC(rk, m, 3); return err })
			}
			for rk := range h.c.ranks {
				h.do("AllBankPRE", func() error { _, err := h.c.AllBankPRE(rk); return err })
			}
			// The SoC steps left the banks unequal: the command loop.
			h.do("AllBankPasses", func() error { return h.c.AllBankPasses(11, 2, 12, 2) })
			h.steps(10)
		}
		// The drained queue takes an arrival earlier than the last one
		// taken; then a second row queues behind the bank's list head.
		h.steps(1 << 30)
		now := h.c.Now()
		h.enqueue(Request{Addr: Addr{Bank: 3, Row: 5}, Arrival: 0})
		h.enqueue(Request{Addr: Addr{Bank: 3, Row: 6}, Arrival: now + 500})
		soc(8, now+500)
		h.steps(1 << 30)
	})
}
