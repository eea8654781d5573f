package dram

import (
	"fmt"
	"slices"
)

// All-bank (PIM) command interface. Near-bank PIM devices such as SK Hynix
// AiM operate banks of one rank in lock-step: a single command activates,
// MACs or precharges every bank simultaneously. These methods let the PIM
// device model (internal/pim) drive the channel timing engine directly;
// they bypass the request queue, so callers must not interleave them with a
// non-empty queue unless they intend to model contention.

// SetDualRowBuffer toggles NeuPIMs-style dual row buffers (paper Sec. V-C,
// "Remaining Challenges"): PIM all-bank operations use a second, dedicated
// row buffer per bank, so they neither require the SoC's rows to be
// precharged nor evict them. Command-bus slots and the MAC cadence remain
// shared. Internally, all-bank commands are redirected to a shadow bank
// state when enabled.
func (c *Channel) SetDualRowBuffer(v bool) {
	if v && c.shadow == nil {
		c.shadow = make([]rank, len(c.ranks))
		for i := range c.shadow {
			c.shadow[i] = newRank(c.spec.Geometry.BanksPerRank, c.t.TREFI)
		}
	}
	c.dualRowBuffer = v
}

// pimRank returns the bank state all-bank commands should operate on.
func (c *Channel) pimRank(rk int) *rank {
	if c.dualRowBuffer {
		return &c.shadow[rk]
	}
	return &c.ranks[rk]
}

// AllBankACT activates row `row` in every bank of rank `rk`, returning the
// issue cycle. All banks must be precharged.
func (c *Channel) AllBankACT(rk, row int) (int64, error) {
	if rk < 0 || rk >= len(c.ranks) {
		return 0, fmt.Errorf("dram: rank %d out of range", rk)
	}
	if row < 0 || row >= c.spec.Geometry.Rows {
		return 0, fmt.Errorf("dram: row %d out of range", row)
	}
	r := c.pimRank(rk)
	at := maxi64(c.cmdBusFree, c.now)
	for i := range r.banks {
		e, legal := r.banks[i].earliest(CmdACT, row)
		if !legal {
			return 0, fmt.Errorf("dram: AllBankACT rank %d bank %d not precharged", rk, i)
		}
		at = maxi64(at, e)
	}
	// All-bank activation draws the row in every bank at once. tRRD and
	// tFAW are per-single-bank-ACT constraints; the all-bank ACT of PIM
	// mode is one (heavier) command, modeled as one ACT record.
	at = maxi64(at, r.earliestACT())
	for i := range r.banks {
		r.banks[i].apply(CmdACT, row, at, c.t)
	}
	r.recordACT(at, c.t)
	c.stats.Activations += int64(len(r.banks))
	c.cmdBusFree = at + 1
	c.advanceNow(at)
	c.recountAll()
	return at, nil
}

// AllBankPRE precharges every bank of rank `rk`, returning the issue cycle.
func (c *Channel) AllBankPRE(rk int) (int64, error) {
	if rk < 0 || rk >= len(c.ranks) {
		return 0, fmt.Errorf("dram: rank %d out of range", rk)
	}
	r := c.pimRank(rk)
	at := maxi64(c.cmdBusFree, c.now)
	for i := range r.banks {
		if r.banks[i].state != bankActive {
			continue
		}
		e, legal := r.banks[i].earliest(CmdPRE, 0)
		if !legal {
			continue
		}
		at = maxi64(at, e)
	}
	for i := range r.banks {
		if r.banks[i].state == bankActive {
			r.banks[i].apply(CmdPRE, 0, at, c.t)
		}
	}
	c.cmdBusFree = at + 1
	c.advanceNow(at)
	c.recountAll()
	return at, nil
}

// AllBankMAC issues one lock-step MAC in every bank of rank `rk`: each bank
// reads one burst from its open row at column `col` into its processing
// unit. `interval` is the minimum spacing (in burst cycles) between MAC
// commands on one rank — the PIM compute cadence. MACs keep data inside the
// device and do not occupy the channel data bus.
func (c *Channel) AllBankMAC(rk, col, interval int) (int64, error) {
	if rk < 0 || rk >= len(c.ranks) {
		return 0, fmt.Errorf("dram: rank %d out of range", rk)
	}
	if interval < 1 {
		interval = 1
	}
	r := c.pimRank(rk)
	at := maxi64(c.cmdBusFree, c.nextMAC[rk])
	for i := range r.banks {
		if r.banks[i].state != bankActive {
			return 0, fmt.Errorf("dram: AllBankMAC rank %d bank %d has no open row", rk, i)
		}
		e, legal := r.banks[i].earliest(CmdRD, r.banks[i].openRow)
		if !legal {
			return 0, fmt.Errorf("dram: AllBankMAC rank %d bank %d illegal", rk, i)
		}
		at = maxi64(at, e)
	}
	_ = col // column index does not affect timing within an open row
	for i := range r.banks {
		r.banks[i].apply(CmdMACab, r.banks[i].openRow, at, c.t)
	}
	if !c.dualRowBuffer {
		// The MACs moved nextPRE on banks that may hold SoC work.
		for i := range c.prep {
			if p := &c.prep[i]; int(p.rank) == rk {
				c.fillPrep(p, p.bank)
			}
		}
	}
	c.nextMAC[rk] = at + int64(interval)
	c.cmdBusFree = at + 1
	c.advanceNow(at)
	return at, nil
}

// WriteGlobalBuffer streams `bursts` write bursts into the PIM global
// (input) buffer of rank `rk` over the channel data bus. It returns the
// cycle the last burst completed.
func (c *Channel) WriteGlobalBuffer(rk, bursts int) (int64, error) {
	if rk < 0 || rk >= len(c.ranks) {
		return 0, fmt.Errorf("dram: rank %d out of range", rk)
	}
	if bursts <= 0 {
		return 0, nil
	}
	last := c.streamBursts(bursts, c.nextWrite)
	c.nextRead = maxi64(c.nextRead, last+int64(c.t.TCCD)+int64(c.t.TWTR))
	c.stats.Writes += int64(bursts)
	return last + int64(c.t.CWL) + int64(c.t.TCCD), nil
}

// ReadMACResults streams `bursts` read bursts of accumulated PU results out
// of rank `rk` over the channel data bus, returning the completion cycle.
func (c *Channel) ReadMACResults(rk, bursts int) (int64, error) {
	if rk < 0 || rk >= len(c.ranks) {
		return 0, fmt.Errorf("dram: rank %d out of range", rk)
	}
	if bursts <= 0 {
		return 0, nil
	}
	last := c.streamBursts(bursts, c.nextRead)
	c.nextWrite = maxi64(c.nextWrite, last+int64(c.t.TCCD)+int64(c.t.TRTW))
	c.stats.Reads += int64(bursts)
	return last + int64(c.t.CL) + int64(c.t.TCCD), nil
}

// streamBursts issues n > 0 back-to-back data-bus bursts, none before
// floor, and returns the last one's issue cycle. Each burst waits only for
// the command bus and data bus its predecessor holds, so after the first
// they issue max(TCCD, 1) cycles apart.
func (c *Channel) streamBursts(n int, floor int64) int64 {
	last := max(c.cmdBusFree, c.dataBusFree, floor) + int64(n-1)*int64(max(c.t.TCCD, 1))
	c.dataBusFree = last + int64(c.t.TCCD)
	c.cmdBusFree = last + 1
	c.stats.DataBusCycles += int64(n) * int64(c.t.TCCD)
	c.advanceNow(last)
	return last
}

// AllBankPasses issues `passes` lock-step PIM row passes. Pass p opens row
// (row+p) mod Rows with an AllBankACT on every rank, issues `bursts` MAC
// rounds (one AllBankMAC per rank, ranks interleaved, at the `interval`
// cadence) and closes the row with an AllBankPRE on every rank. Issue
// cycles, the final channel state and Stats() are exactly those of that
// AllBankACT/AllBankMAC/AllBankPRE loop.
//
// When every bank of each rank is idle and in one shared state (always
// true on a fresh channel), the passes run on one representative bank
// per rank and steady-state rounds and passes are skipped in closed form
// (see lockstep). Otherwise the command loop runs as written.
func (c *Channel) AllBankPasses(row, passes, bursts, interval int) error {
	if row < 0 || row >= c.spec.Geometry.Rows {
		return fmt.Errorf("dram: row %d out of range", row)
	}
	if passes < 0 || bursts < 0 {
		return fmt.Errorf("dram: negative pass (%d) or burst (%d) count", passes, bursts)
	}
	if interval < 1 {
		interval = 1
	}
	if l := c.newLockstep(bursts > 0); l != nil {
		l.run(row, passes, bursts, int64(interval))
		c.recountAll()
		return nil
	}
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

// lockstep advances AllBankPasses on one representative bank per rank:
// lock-step commands apply one update to every bank, so banks that start
// equal stay equal.
//
// Every all-bank update is a max-plus map of the timing state (each new
// time is a max of old times plus constants), so it commutes with adding
// Δ to every time. Once a MAC round, or a whole pass, leaves the state
// equal to the one before it shifted by Δ, each later round (pass) repeats
// it Δ later, and k of them are skipped by adding k·Δ. The comparison
// clamps times older than now−horizon: every read also takes now (or
// cmdBusFree = now+1), and no constant added to a read time reaches
// horizon, so such times can never win a max again.
type lockstep struct {
	c       *Channel
	ranks   []*rank // the rank state all-bank commands use
	reps    []bank  // each rank's shared bank state
	horizon int64

	now, cmdBusFree int64
	// times lists the times every pass writes, the ones every MAC round
	// writes first: macTimes is its prefix. A skip shifts exactly the
	// times it compared, and lists only times that are rewritten, so none
	// is left behind stale.
	times, macTimes []*int64
	macs, passes    repeat
}

// repeat detects a round or pass that left the state equal to the one
// before it shifted by some Δ.
type repeat struct {
	prev, cur []int64
	prevNow   int64
	have      bool
}

// newLockstep captures the channel's all-bank state into the channel's
// reusable lockstep, or returns nil when some rank's banks are not all
// idle and equal. withMACs says whether the passes issue MACs (only then
// does a pass rewrite nextMAC).
func (c *Channel) newLockstep(withMACs bool) *lockstep {
	for rk := range c.ranks {
		r := c.pimRank(rk)
		rep := r.banks[0]
		if rep.state != bankIdle {
			return nil
		}
		for _, b := range r.banks[1:] {
			if b != rep {
				return nil
			}
		}
	}
	l := &c.lockstep
	if l.c == nil {
		// Per rank: 4 MAC-round times, 3 more per pass, 4 window entries.
		t, n := c.t, len(c.ranks)
		snaps := 2 + 11*n
		buf := make([]int64, 4*snaps)
		*l = lockstep{
			c:       c,
			horizon: 1 + int64(max(t.TRCD, t.TRP, t.TRAS, t.TRC, t.TCCD+t.TRTW, t.TRTP, t.TRRD, t.TFAW)),
			ranks:   make([]*rank, n),
			reps:    make([]bank, n),
			times:   make([]*int64, 0, 2+7*n),
			macs:    repeat{prev: buf[:0:snaps], cur: buf[snaps : snaps : 2*snaps]},
			passes:  repeat{prev: buf[2*snaps : 2*snaps : 3*snaps], cur: buf[3*snaps : 3*snaps : 4*snaps]},
		}
	}
	l.now, l.cmdBusFree = c.now, c.cmdBusFree
	l.times = append(l.times[:0], &l.now, &l.cmdBusFree)
	for rk := range l.reps {
		l.ranks[rk] = c.pimRank(rk)
		l.reps[rk] = l.ranks[rk].banks[0]
		b := &l.reps[rk]
		if withMACs {
			l.times = append(l.times, &c.nextMAC[rk])
		}
		l.times = append(l.times, &b.nextRD, &b.nextWR, &b.nextPRE)
	}
	l.macTimes = l.times
	for rk, r := range l.ranks {
		b := &l.reps[rk]
		l.times = append(l.times, &b.nextACT, &b.lastACTAt, &r.nextACT)
	}
	return l
}

// run issues the passes and writes the result back to the channel.
func (l *lockstep) run(row, passes, bursts int, interval int64) {
	l.passes.have = false
	for p := 0; p < passes; p++ {
		l.pass((row+p)%l.c.spec.Geometry.Rows, bursts, interval)
		// Skipping k passes rebuilds each tFAW window from the last
		// pass's ACT, which needs k >= 3 so all four entries fall in
		// the periodic stretch. The windows must also be full: from
		// the fourth ACT on, every ACT reads its window's oldest entry.
		left := passes - p - 1
		if left < 3 || !l.windowsFull() {
			l.passes.have = false
			continue
		}
		if d, ok := l.repeated(&l.passes, l.times, true); ok {
			l.skipPasses(left, d)
			break
		}
	}
	for rk, r := range l.ranks {
		for i := range r.banks {
			r.banks[i] = l.reps[rk]
		}
	}
	l.c.cmdBusFree = l.cmdBusFree
	l.c.advanceNow(l.now)
}

// pass issues one ACT, `bursts` MAC rounds and one PRE on every rank.
func (l *lockstep) pass(row, bursts int, interval int64) {
	c, t := l.c, l.c.t
	for rk, r := range l.ranks {
		b := &l.reps[rk]
		at := max(l.cmdBusFree, l.now, b.nextACT, r.earliestACT())
		b.apply(CmdACT, row, at, t)
		r.recordACT(at, t)
		l.issue(at)
		c.stats.Activations += int64(len(r.banks))
	}
	l.macs.have = false
	for k := 0; k < bursts; k++ {
		for rk := range l.ranks {
			b := &l.reps[rk]
			at := max(l.cmdBusFree, c.nextMAC[rk], b.nextRD)
			b.apply(CmdMACab, b.openRow, at, t)
			c.nextMAC[rk] = at + interval
			l.issue(at)
		}
		left := bursts - k - 1
		if left == 0 {
			break
		}
		if d, ok := l.repeated(&l.macs, l.macTimes, false); ok {
			l.shift(l.macTimes, int64(left)*d)
			break
		}
	}
	for rk := range l.ranks {
		b := &l.reps[rk]
		at := max(l.cmdBusFree, l.now, b.nextPRE)
		b.apply(CmdPRE, 0, at, t)
		l.issue(at)
	}
}

// issue books one command at cycle at on the command bus and the clock.
func (l *lockstep) issue(at int64) {
	l.cmdBusFree = at + 1
	l.now = max(l.now, at)
}

// windowsFull reports whether every rank's next ACT is at least its
// fourth, so it reads its tFAW window.
func (l *lockstep) windowsFull() bool {
	for _, r := range l.ranks {
		if r.actCount < 3 {
			return false
		}
	}
	return true
}

// snapshot writes the times, relative to now and clamped at -horizon, into
// dst; windows adds each rank's tFAW window oldest first.
func (l *lockstep) snapshot(dst []int64, times []*int64, windows bool) []int64 {
	dst = dst[:0]
	floor := l.now - l.horizon
	for _, p := range times {
		dst = append(dst, max(*p, floor)-l.now)
	}
	if windows {
		for _, r := range l.ranks {
			for i := 0; i < 4; i++ {
				dst = append(dst, max(r.actWindow[(r.actCount+i)%4], floor)-l.now)
			}
		}
	}
	return dst
}

// repeated snapshots the state into rp and reports the shift Δ from the
// previous snapshot when the two are equal.
func (l *lockstep) repeated(rp *repeat, times []*int64, windows bool) (int64, bool) {
	rp.cur = l.snapshot(rp.cur, times, windows)
	if rp.have && slices.Equal(rp.prev, rp.cur) {
		return l.now - rp.prevNow, true
	}
	rp.prev, rp.cur = rp.cur, rp.prev
	rp.prevNow, rp.have = l.now, true
	return 0, false
}

// shift adds d to every listed time.
func (l *lockstep) shift(times []*int64, d int64) {
	for _, p := range times {
		*p += d
	}
}

// skipPasses advances k >= 3 passes of period d. Each tFAW window then
// holds the ACTs of the last four passes, d apart.
func (l *lockstep) skipPasses(k int, d int64) {
	l.shift(l.times, int64(k)*d)
	for _, r := range l.ranks {
		newest := r.actWindow[(r.actCount+3)%4] + int64(k)*d
		r.actCount += k
		for i := 0; i < 4; i++ {
			r.actWindow[(r.actCount+i)%4] = newest - int64(3-i)*d
		}
		l.c.stats.Activations += int64(k * len(r.banks))
	}
}
