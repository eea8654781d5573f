package dram

import "fmt"

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
	var done int64
	for i := 0; i < bursts; i++ {
		at := maxi64(c.cmdBusFree, maxi64(c.dataBusFree, c.nextWrite))
		c.dataBusFree = at + int64(c.t.TCCD)
		c.nextRead = maxi64(c.nextRead, at+int64(c.t.TCCD)+int64(c.t.TWTR))
		c.cmdBusFree = at + 1
		done = at + int64(c.t.CWL) + int64(c.t.TCCD)
		c.advanceNow(at)
		c.stats.Writes++
		c.stats.DataBusCycles += int64(c.t.TCCD)
	}
	return done, nil
}

// ReadMACResults streams `bursts` read bursts of accumulated PU results out
// of rank `rk` over the channel data bus, returning the completion cycle.
func (c *Channel) ReadMACResults(rk, bursts int) (int64, error) {
	if rk < 0 || rk >= len(c.ranks) {
		return 0, fmt.Errorf("dram: rank %d out of range", rk)
	}
	var done int64
	for i := 0; i < bursts; i++ {
		at := maxi64(c.cmdBusFree, maxi64(c.dataBusFree, c.nextRead))
		c.dataBusFree = at + int64(c.t.TCCD)
		c.nextWrite = maxi64(c.nextWrite, at+int64(c.t.TCCD)+int64(c.t.TRTW))
		c.cmdBusFree = at + 1
		done = at + int64(c.t.CL) + int64(c.t.TCCD)
		c.advanceNow(at)
		c.stats.Reads++
		c.stats.DataBusCycles += int64(c.t.TCCD)
	}
	return done, nil
}
