package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// allBankLoop is the command loop AllBankPasses must reproduce: the
// oracle for its lock-step fast path.
func allBankLoop(c *Channel, row, passes, bursts, interval int) error {
	for p := 0; p < passes; p++ {
		r := (row + p) % c.spec.Geometry.Rows
		for rk := range c.ranks {
			if _, err := c.AllBankACT(rk, r); err != nil {
				return err
			}
		}
		for b := 0; b < bursts; b++ {
			for rk := range c.ranks {
				if _, err := c.AllBankMAC(rk, b, interval); err != nil {
					return err
				}
			}
		}
		for rk := range c.ranks {
			if _, err := c.AllBankPRE(rk); err != nil {
				return err
			}
		}
	}
	return nil
}

// timingState is every piece of channel state an all-bank command reads or
// writes, plus the counters.
type timingState struct {
	Now, CmdBusFree, RowCmdFree3, DataBusFree, NextRead, NextWrite int64
	NextMAC                                                        []int64
	Ranks, Shadow                                                  []rank
	Stats                                                          ChannelStats
}

func captureTiming(c *Channel) timingState {
	return timingState{
		Now: c.now, CmdBusFree: c.cmdBusFree, RowCmdFree3: c.rowCmdFree3,
		DataBusFree: c.dataBusFree, NextRead: c.nextRead, NextWrite: c.nextWrite,
		NextMAC: append([]int64(nil), c.nextMAC...),
		Ranks:   cloneRanks(c.ranks),
		Shadow:  cloneRanks(c.shadow),
		Stats:   c.stats,
	}
}

func cloneRanks(rs []rank) []rank {
	out := make([]rank, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].banks = append([]bank(nil), r.banks...)
	}
	return out
}

// allBankCase is one randomized AllBankPasses scenario.
type allBankCase struct {
	spec    Spec
	refresh bool
	dual    bool
	// prefix: 0 fresh, 1 a drained request stream (rows left open),
	// 2 that stream then AllBankPRE everywhere (idle, unequal banks),
	// 3 an earlier AllBankPasses call.
	prefix int
	calls  [][4]int // row, passes, bursts, interval
	seed   int64
}

func (tc allBankCase) String() string {
	t := tc.spec.Timing
	return fmt.Sprintf("ranks=%d refresh=%v dual=%v prefix=%d calls=%v tccd=%d trrd=%d tfaw=%d tras=%d trcd=%d seed=%d",
		tc.spec.Geometry.RanksPerChannel, tc.refresh, tc.dual, tc.prefix, tc.calls, t.TCCD, t.TRRD, t.TFAW, t.TRAS, t.TRCD, tc.seed)
}

// randomAllBankCase draws timing constants around LPDDR5's, a rank count,
// channel modes, a prefix and up to three AllBankPasses calls.
func randomAllBankCase(t testing.TB, rng *rand.Rand) allBankCase {
	ranks := 1 << rng.Intn(3)
	spec, err := LPDDR5("allbank test", 16, 6400, ranks, int64(ranks)*16*2048*1024)
	if err != nil {
		t.Fatal(err)
	}
	tm := &spec.Timing
	tm.TCCD = 1 + rng.Intn(4)
	tm.TRRD = rng.Intn(12)
	tm.TFAW = rng.Intn(48)
	tm.TRCD = rng.Intn(16)
	tm.TRTP = rng.Intn(8)
	tm.TRTW = rng.Intn(6)
	tm.TRAS = rng.Intn(60)
	tm.TRP = rng.Intn(16)
	tm.TRC = tm.TRAS + tm.TRP + rng.Intn(8)
	tc := allBankCase{
		spec:    spec,
		refresh: rng.Intn(2) == 0,
		dual:    rng.Intn(3) == 0,
		prefix:  rng.Intn(4),
		seed:    rng.Int63(),
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		tc.calls = append(tc.calls, [4]int{
			rng.Intn(spec.Geometry.Rows), rng.Intn(24), rng.Intn(80), rng.Intn(13),
		})
	}
	return tc
}

// checkAllBankPasses runs tc through AllBankPasses and through the command
// loop on twin channels and fails on any difference in timing state,
// counters, errors or a follow-on request drain. It reports whether the
// first call took the lock-step fast path.
func checkAllBankPasses(t testing.TB, tc allBankCase) (fast bool) {
	t.Helper()
	mk := func() *Channel {
		c := NewChannel(&tc.spec)
		c.SetRefreshEnabled(tc.refresh)
		c.SetDualRowBuffer(tc.dual)
		rng := rand.New(rand.NewSource(tc.seed))
		switch tc.prefix {
		case 1, 2:
			for _, r := range randomTraffic(tc.spec, 200+rng.Intn(200), tc.seed) {
				r.Addr.Channel = 0
				if err := c.Enqueue(r); err != nil {
					t.Fatal(err)
				}
			}
			drained(t, c)
			if tc.prefix == 2 {
				for rk := range c.ranks {
					if _, err := c.AllBankPRE(rk); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 3:
			if err := allBankLoop(c, 0, 1+rng.Intn(5), 1+rng.Intn(64), 1+rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	got, want := mk(), mk()
	fast = got.newLockstep(true) != nil
	for i, call := range tc.calls {
		gerr := got.AllBankPasses(call[0], call[1], call[2], call[3])
		werr := allBankLoop(want, call[0], call[1], call[2], max(call[3], 1))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%v: call %d: error %v, loop error %v", tc, i, gerr, werr)
		}
		if g, w := captureTiming(got), captureTiming(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%v: call %d: state diverged\n got %+v\nwant %+v", tc, i, g, w)
		}
		if gerr != nil {
			return fast
		}
	}
	gr := randomTraffic(tc.spec, 300, tc.seed+1)
	wr := randomTraffic(tc.spec, 300, tc.seed+1)
	for i := range gr {
		gr[i].Addr.Channel, wr[i].Addr.Channel = 0, 0
		gr[i].Arrival += got.Now()
		wr[i].Arrival += want.Now()
		if err := got.Enqueue(gr[i]); err != nil {
			t.Fatal(err)
		}
		if err := want.Enqueue(wr[i]); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := drained(t, got), drained(t, want); g != w {
		t.Fatalf("%v: follow-on drain ends at %d, loop at %d", tc, g, w)
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%v: follow-on stats %+v, loop %+v", tc, g, w)
	}
	for i := range gr {
		if gr[i].Done != wr[i].Done {
			t.Fatalf("%v: follow-on request %d done at %d, loop at %d", tc, i, gr[i].Done, wr[i].Done)
		}
	}
	return fast
}

// TestAllBankPassesMatchesLoop pins AllBankPasses to the command loop it
// replaces: the same Now(), Stats() and internal timing state after every
// call, and the same schedule for requests queued afterwards, over random
// timing constants, rank counts, cadences, refresh and dual-row-buffer
// modes, and both the fast path and the fallback.
func TestAllBankPassesMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var fast, slow int
	for i := 0; i < 600; i++ {
		if checkAllBankPasses(t, randomAllBankCase(t, rng)) {
			fast++
		} else {
			slow++
		}
	}
	if fast < 100 || slow < 100 {
		t.Fatalf("fast path taken %d times, fallback %d: want both >= 100", fast, slow)
	}
}

// TestAllBankPassesLPDDR5 runs the paper's own timing: long GEMV-like
// sequences, where the steady-state skips do the work.
func TestAllBankPassesLPDDR5(t *testing.T) {
	spec := smallSpec()
	for _, call := range [][4]int{{0, 1, 64, 6}, {5, 7, 64, 6}, {0, 40, 64, 2}, {9, 100, 64, 1}, {0, 33, 3, 16}, {0, 12, 0, 6}} {
		tc := allBankCase{spec: spec, calls: [][4]int{call, call}, seed: 1}
		if !checkAllBankPasses(t, tc) {
			t.Fatalf("%v: fresh channel missed the fast path", tc)
		}
	}
}

func TestAllBankPassesRejectsBadArgs(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	for _, call := range [][3]int{{-1, 1, 1}, {spec.Geometry.Rows, 1, 1}, {0, -1, 1}, {0, 1, -1}} {
		if err := ch.AllBankPasses(call[0], call[1], call[2], 1); err == nil {
			t.Errorf("AllBankPasses(%d, %d, %d) accepted", call[0], call[1], call[2])
		}
	}
	if ch.Now() != 0 || ch.Stats() != (ChannelStats{}) {
		t.Error("rejected call changed the channel")
	}
}

// globalBufferLoop and macResultsLoop are WriteGlobalBuffer and
// ReadMACResults burst by burst: the oracles for their closed forms.
func globalBufferLoop(c *Channel, bursts int) int64 {
	var done int64
	for i := 0; i < bursts; i++ {
		at := max(c.cmdBusFree, c.dataBusFree, c.nextWrite)
		c.dataBusFree = at + int64(c.t.TCCD)
		c.nextRead = max(c.nextRead, at+int64(c.t.TCCD)+int64(c.t.TWTR))
		c.cmdBusFree = at + 1
		done = at + int64(c.t.CWL) + int64(c.t.TCCD)
		c.advanceNow(at)
		c.stats.Writes++
		c.stats.DataBusCycles += int64(c.t.TCCD)
	}
	return done
}

func macResultsLoop(c *Channel, bursts int) int64 {
	var done int64
	for i := 0; i < bursts; i++ {
		at := max(c.cmdBusFree, c.dataBusFree, c.nextRead)
		c.dataBusFree = at + int64(c.t.TCCD)
		c.nextWrite = max(c.nextWrite, at+int64(c.t.TCCD)+int64(c.t.TRTW))
		c.cmdBusFree = at + 1
		done = at + int64(c.t.CL) + int64(c.t.TCCD)
		c.advanceNow(at)
		c.stats.Reads++
		c.stats.DataBusCycles += int64(c.t.TCCD)
	}
	return done
}

// TestGlobalBufferTransfersMatchLoop pins the closed-form global-buffer
// writes and MAC-result reads to their burst loops, in random order from
// random channel states.
func TestGlobalBufferTransfersMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		tc := randomAllBankCase(t, rng)
		tc.spec.Timing.TWTR = rng.Intn(10)
		got, want := NewChannel(&tc.spec), NewChannel(&tc.spec)
		traffic := rng.Intn(50)
		for _, c := range []*Channel{got, want} {
			for _, r := range randomTraffic(tc.spec, traffic, tc.seed) {
				r.Addr.Channel = 0
				if err := c.Enqueue(r); err != nil {
					t.Fatal(err)
				}
			}
			drained(t, c)
		}
		for step := 0; step < 6; step++ {
			n, rk := rng.Intn(80)-5, rng.Intn(tc.spec.Geometry.RanksPerChannel)
			var g, w int64
			var err error
			if rng.Intn(2) == 0 {
				g, err = got.WriteGlobalBuffer(rk, n)
				w = globalBufferLoop(want, n)
			} else {
				g, err = got.ReadMACResults(rk, n)
				w = macResultsLoop(want, n)
			}
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Fatalf("%v: step %d (%d bursts): done %d, loop %d", tc, step, n, g, w)
			}
			if gs, ws := captureTiming(got), captureTiming(want); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%v: step %d (%d bursts): state diverged\n got %+v\nwant %+v", tc, step, n, gs, ws)
			}
		}
	}
}
