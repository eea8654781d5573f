package dram

// Reference FR-FCFS scheduler ("refsched"): the pre-optimization channel
// implementation, retained verbatim so the optimized scheduler in
// channel.go can be pinned against it command-for-command.
//
// The optimized scheduler replaces this code's per-step scratch map and
// its O(n) append-compaction queue removal with a slot pool and per-bank
// intrusive lists — data-structure changes only. Both schedulers must produce
// bit-identical schedules (per-request Done cycles and ChannelStats) for
// any request stream; the differential property tests and fuzz target in
// diffsched_test.go enforce that, and BenchmarkChannelDrain measures the
// speedup the rewrite buys.
//
// The only intentional divergence from the historical code is the refresh
// counter: like the optimized scheduler, the reference folds refreshes
// into stats at apply time instead of re-deriving them from rank state in
// Stats() (see ChannelStats), so stat snapshots of the two schedulers
// compare field-for-field.

// refPending wraps a Request with scheduler-internal bookkeeping.
type refPending struct {
	req *Request
	// activated is set once the scheduler issued an ACT on behalf of
	// this request; used to classify row hits vs misses.
	activated bool
}

// refCandidate is one issuable command considered by the reference
// scheduler.
type refCandidate struct {
	kind     CommandKind
	queueIdx int
	earliest int64
}

// ReferenceChannel is the retained pre-optimization single-channel
// FR-FCFS scheduler. It exists for differential testing and benchmarking
// against the optimized Channel; simulations should use Channel.
//
// A ReferenceChannel is not safe for concurrent use.
type ReferenceChannel struct {
	spec  *Spec
	t     *Timing
	ranks []rank

	queue []refPending

	now         int64
	cmdBusFree  int64
	rowCmdFree3 int64
	dataBusFree int64
	nextRead    int64
	nextWrite   int64

	window         int
	refreshEnabled bool
	rowPolicy      RowPolicy

	stats ChannelStats
}

// NewReferenceChannel builds a reference scheduler for one channel of the
// given spec.
func NewReferenceChannel(spec *Spec) *ReferenceChannel {
	c := &ReferenceChannel{
		spec:           spec,
		t:              &spec.Timing,
		window:         DefaultWindow,
		refreshEnabled: true,
	}
	c.ranks = make([]rank, spec.Geometry.RanksPerChannel)
	for i := range c.ranks {
		c.ranks[i] = newRank(spec.Geometry.BanksPerRank, spec.Timing.TREFI)
	}
	return c
}

// SetRefreshEnabled toggles periodic refresh (enabled by default).
func (c *ReferenceChannel) SetRefreshEnabled(v bool) { c.refreshEnabled = v }

// SetRowPolicy selects the row-buffer management policy (OpenRow default).
func (c *ReferenceChannel) SetRowPolicy(p RowPolicy) { c.rowPolicy = p }

// SetWindow sets the FR-FCFS reorder window; w < 1 means strict FCFS.
func (c *ReferenceChannel) SetWindow(w int) {
	if w < 1 {
		w = 1
	}
	c.window = w
}

// Now returns the cycle of the most recently issued command.
func (c *ReferenceChannel) Now() int64 { return c.now }

// Stats returns a snapshot of the channel statistics.
func (c *ReferenceChannel) Stats() ChannelStats { return c.stats }

// Enqueue adds a request to the channel queue.
func (c *ReferenceChannel) Enqueue(r *Request) error {
	if !r.Addr.chanLocalValid(c.spec.Geometry) {
		return addrRangeError(r.Addr)
	}
	c.queue = append(c.queue, refPending{req: r})
	return nil
}

// Pending returns the number of queued requests.
func (c *ReferenceChannel) Pending() int { return len(c.queue) }

// PendingReady counts queued requests that have arrived by the current
// clock (full-queue rescan); the optimized scheduler's HasReady must
// equal PendingReady() > 0.
func (c *ReferenceChannel) PendingReady() int {
	n := 0
	for i := range c.queue {
		if c.queue[i].req.Arrival <= c.now {
			n++
		}
	}
	return n
}

// Drain runs the scheduler until the queue is empty and returns the cycle
// at which the last request's data burst completed.
func (c *ReferenceChannel) Drain() int64 {
	for len(c.queue) > 0 {
		c.step()
	}
	return c.stats.LastDone
}

// DrainUpTo runs until at most n requests remain.
func (c *ReferenceChannel) DrainUpTo(n int) {
	for len(c.queue) > n {
		c.step()
	}
}

// StepOne issues exactly one command (or performs one refresh/idle jump).
func (c *ReferenceChannel) StepOne() {
	c.step()
}

// step issues exactly one command (or performs one refresh).
func (c *ReferenceChannel) step() {
	if len(c.queue) == 0 {
		return
	}
	if c.refreshEnabled {
		for ri := range c.ranks {
			if c.ranks[ri].refreshDue(c.now) {
				c.ranks[ri].applyRefresh(c.now, c.t)
				c.stats.Refreshes++
			}
		}
	}

	best, ok := c.pickCommand()
	if !ok {
		// Nothing arrived yet: jump to the first arrival.
		var minArr int64 = -1
		for i := range c.queue {
			if minArr < 0 || c.queue[i].req.Arrival < minArr {
				minArr = c.queue[i].req.Arrival
			}
		}
		if minArr > c.now {
			c.now = minArr
		}
		return
	}
	c.issue(best)
}

// pickCommand selects the next command FR-FCFS style, allocating a fresh
// hit-wanted scratch map per step — the hot-path cost the optimized
// scheduler eliminates.
func (c *ReferenceChannel) pickCommand() (refCandidate, bool) {
	g := c.spec.Geometry
	limit := len(c.queue)
	if limit > c.window {
		limit = c.window
	}

	var bestCol, bestPrep refCandidate
	haveCol, havePrep := false, false
	consider := func(cand refCandidate) {
		isCol := cand.kind == CmdRD || cand.kind == CmdWR
		if isCol {
			if !haveCol || cand.earliest < bestCol.earliest ||
				(cand.earliest == bestCol.earliest && cand.queueIdx < bestCol.queueIdx) {
				bestCol = cand
				haveCol = true
			}
			return
		}
		if !havePrep || cand.earliest < bestPrep.earliest ||
			(cand.earliest == bestPrep.earliest && cand.queueIdx < bestPrep.queueIdx) {
			bestPrep = cand
			havePrep = true
		}
	}

	// hitWanted marks banks for which some visible request targets the
	// currently open row; such banks must not be precharged (FR part).
	hitWanted := make(map[int]bool)
	for i := 0; i < limit; i++ {
		r := c.queue[i].req
		b := &c.ranks[r.Addr.Rank].banks[r.Addr.Bank]
		if b.state == bankActive && b.openRow == r.Addr.Row {
			hitWanted[r.Addr.Rank*g.BanksPerRank+r.Addr.Bank] = true
		}
	}

	for i := 0; i < limit; i++ {
		r := c.queue[i].req
		rk := &c.ranks[r.Addr.Rank]
		b := &rk.banks[r.Addr.Bank]
		arr := r.Arrival

		switch {
		case b.state == bankActive && b.openRow == r.Addr.Row:
			kind := r.Kind()
			e, legal := b.earliest(kind, r.Addr.Row)
			if !legal {
				continue
			}
			e = maxi64(e, c.columnEarliest(kind))
			e = maxi64(e, arr)
			consider(refCandidate{kind: kind, queueIdx: i, earliest: e})
		case b.state == bankIdle:
			e, legal := b.earliest(CmdACT, r.Addr.Row)
			if !legal {
				continue
			}
			e = maxi64(e, rk.earliestACT())
			e = maxi64(e, c.rowCmdEarliest())
			e = maxi64(e, c.now)
			e = maxi64(e, arr)
			consider(refCandidate{kind: CmdACT, queueIdx: i, earliest: e})
		default:
			// Conflict: open row differs. Only precharge if no
			// visible request still wants the open row.
			key := r.Addr.Rank*g.BanksPerRank + r.Addr.Bank
			if hitWanted[key] {
				continue
			}
			e, legal := b.earliest(CmdPRE, 0)
			if !legal {
				continue
			}
			e = maxi64(e, c.rowCmdEarliest())
			e = maxi64(e, c.now)
			e = maxi64(e, arr)
			consider(refCandidate{kind: CmdPRE, queueIdx: i, earliest: e})
		}
	}
	switch {
	case haveCol && havePrep:
		if bestPrep.earliest <= bestCol.earliest {
			return bestPrep, true
		}
		return bestCol, true
	case haveCol:
		return bestCol, true
	case havePrep:
		return bestPrep, true
	default:
		return refCandidate{}, false
	}
}

// rowStillWanted reports whether any visible request targets the open row
// of the bank at addr (O(window) rescan).
func (c *ReferenceChannel) rowStillWanted(a Addr) bool {
	limit := len(c.queue)
	if limit > c.window {
		limit = c.window
	}
	for i := 0; i < limit; i++ {
		q := c.queue[i].req.Addr
		if q.Rank == a.Rank && q.Bank == a.Bank && q.Row == a.Row {
			return true
		}
	}
	return false
}

// rowCmdEarliest returns the first cycle with a free row-command slot.
func (c *ReferenceChannel) rowCmdEarliest() int64 {
	return c.rowCmdFree3 / rowCmdSlots
}

// consumeRowCmdSlot books one ACT/PRE slot at cycle `at`.
func (c *ReferenceChannel) consumeRowCmdSlot(at int64) {
	if v := at * rowCmdSlots; c.rowCmdFree3 < v {
		c.rowCmdFree3 = v
	}
	c.rowCmdFree3++
}

// columnEarliest combines channel-level constraints for a column command.
func (c *ReferenceChannel) columnEarliest(kind CommandKind) int64 {
	e := maxi64(c.cmdBusFree, c.dataBusFree)
	switch kind {
	case CmdRD:
		e = maxi64(e, c.nextRead)
	case CmdWR:
		e = maxi64(e, c.nextWrite)
	}
	return e
}

// issue applies the chosen command.
func (c *ReferenceChannel) issue(cand refCandidate) {
	pr := &c.queue[cand.queueIdx]
	r := pr.req
	rk := &c.ranks[r.Addr.Rank]
	b := &rk.banks[r.Addr.Bank]
	at := cand.earliest

	switch cand.kind {
	case CmdPRE:
		b.apply(CmdPRE, 0, at, c.t)
		c.consumeRowCmdSlot(at)
	case CmdACT:
		b.apply(CmdACT, r.Addr.Row, at, c.t)
		rk.recordACT(at, c.t)
		pr.activated = true
		c.stats.Activations++
		c.consumeRowCmdSlot(at)
	case CmdRD, CmdWR:
		b.apply(cand.kind, r.Addr.Row, at, c.t)
		c.dataBusFree = at + int64(c.t.TCCD)
		c.stats.DataBusCycles += int64(c.t.TCCD)
		var done int64
		if cand.kind == CmdRD {
			c.stats.Reads++
			done = at + int64(c.t.CL) + int64(c.t.TCCD)
			c.nextWrite = maxi64(c.nextWrite, at+int64(c.t.TCCD)+int64(c.t.TRTW))
		} else {
			c.stats.Writes++
			done = at + int64(c.t.CWL) + int64(c.t.TCCD)
			c.nextRead = maxi64(c.nextRead, at+int64(c.t.TCCD)+int64(c.t.TWTR))
		}
		if pr.activated {
			c.stats.RowMisses++
		} else {
			c.stats.RowHits++
		}
		r.Done = done
		if done > c.stats.LastDone {
			c.stats.LastDone = done
		}
		// Remove from queue preserving order (the O(n) compaction the
		// optimized scheduler replaces with O(1) list unlinking).
		c.queue = append(c.queue[:cand.queueIdx], c.queue[cand.queueIdx+1:]...)
		c.cmdBusFree = at + 1
		if c.rowPolicy == CloseRow && !c.rowStillWanted(r.Addr) {
			// Auto-precharge (RDA/WRA): close as soon as the bank's
			// timing constraints allow, without a command-bus slot.
			b.apply(CmdPRE, 0, b.nextPRE, c.t)
		}
	}
	if at > c.now {
		c.now = at
	}
}

// Kind returns the data command this request needs.
func (r *Request) Kind() CommandKind {
	if r.Write {
		return CmdWR
	}
	return CmdRD
}
