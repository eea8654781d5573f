package dram

import (
	"fmt"
	"math"
)

// ChannelStats aggregates per-channel scheduler statistics.
//
// Counters follow merge-on-join semantics: each Channel owns its counters
// single-threaded (a Channel is single-owner, never shared between
// goroutines), and cross-channel or cross-simulation aggregation happens
// by merging snapshots after the owning simulation finishes. Snapshots
// are plain values, so merging never races with a running scheduler.
//
// Every counter — including Refreshes — is folded into the snapshot at
// command-apply time, so Stats() is a pure read: repeated snapshots of
// the same channel are identical, and merging two snapshots taken at
// different times can never double-count a refresh.
type ChannelStats struct {
	Reads       int64
	Writes      int64
	Activations int64
	RowHits     int64
	RowMisses   int64
	Refreshes   int64
	// DataBusCycles counts cycles the data bus carried a burst.
	DataBusCycles int64
	// LastDone is the completion cycle of the last finished request.
	LastDone int64
}

// Merge folds another snapshot into s: counters add, LastDone takes the
// later completion cycle. This is the join step of the merge-on-join
// contract — call it only on snapshots of finished (or paused) channels.
func (s *ChannelStats) Merge(o ChannelStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Activations += o.Activations
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.Refreshes += o.Refreshes
	s.DataBusCycles += o.DataBusCycles
	if o.LastDone > s.LastDone {
		s.LastDone = o.LastDone
	}
}

// noSlot is the nil value of slot-pool indexes.
const noSlot = int32(-1)

// slot is one queued request inside the channel's slot pool. Queued
// requests live in a reusable array and are linked into two intrusive
// lists by index: the queue-order list (every live request, FCFS order)
// and the per-bank visible list (requests inside the FR-FCFS window,
// grouped by bank, FCFS order). Freed slots are chained through next.
type slot struct {
	req Request
	// user, when non-nil, is the caller's Request struct; its Done field
	// is written back on completion (pointer-Enqueue compatibility).
	user *Request
	// activated is set once the scheduler issued an ACT on behalf of
	// this request; used to classify row hits vs misses.
	activated bool
	// hit is set while the entry is visible and targets its bank's open
	// row (a column candidate).
	hit bool
	// pos is the global enqueue sequence number — the FCFS tie-breaker
	// (monotone with the reference scheduler's queue index).
	pos uint64
	// bank is the request's dense bank index (see bankIndex).
	bank int32

	next, prev   int32 // queue-order list links
	bnext, bprev int32 // per-bank visible list links
}

// Channel is a single-channel DRAM command scheduler implementing
// first-ready, first-come-first-served (FR-FCFS) scheduling with an
// open-row policy, bank/rank timing constraints, data-bus contention,
// read/write turnaround and periodic all-bank refresh.
//
// The scheduler's hot path is allocation-free in steady state: queued
// requests live in a reusable slot pool, per-bank row-hit counts are kept
// up to date as requests enter and leave the visible window, so a pick
// scans the visible queue only until no later hit can win and walks only
// banks without a visible hit for ACT/PRE candidates, and request
// completion unlinks in O(1) instead of compacting a slice. The command
// schedule is bit-identical to the retained test-only ReferenceChannel
// (see refsched_test.go and the differential tests pinning the
// equivalence).
//
// A Channel is not safe for concurrent use.
type Channel struct {
	spec  *Spec
	t     *Timing
	ranks []rank

	// Slot pool and queue-order list.
	slots    []slot
	freeHead int32
	head     int32
	tail     int32
	count    int
	seq      uint64

	// Visible-window state: the first min(count, window) queue entries
	// are "visible" to FR-FCFS. Visibility only ever extends forward:
	// enqueue fills a non-full window and completion slides it.
	visTail  int32
	visCount int

	// Per-bank visible lists indexed rank*BanksPerRank+bank.
	bankHead []int32
	bankTail []int32
	// hits counts each bank's visible row hits (requests on its open
	// row) and hitTotal the channel's per class (read, write). They are
	// updated as entries enter and leave the window and recounted when
	// a bank's row state changes.
	hits     []int32
	hitTotal [2]int32
	// prepBanks is the dense set of banks with visible work and no
	// visible hit: only they yield ACT/PRE candidates. prepPos maps a
	// bank to its index in prepBanks, -1 if absent.
	prepBanks []int32
	prepPos   []int32
	// seen stamps each (bank, class) with the last pick that met a hit
	// of it (see pickCommand).
	seen []int64
	// bankLoc resolves a dense bank index to its rank and bank state,
	// precomputed so the pick loop never divides by BanksPerRank.
	bankLoc []bankLoc

	// inOrder holds while queued arrivals are non-decreasing in enqueue
	// order; lastArrival is the arrival of the most recent push. Under
	// inOrder the first entry of each command class in a bank wins that
	// class, so pickCommand skips the rest, and the queue head holds the
	// earliest arrival (HasReady).
	inOrder     bool
	lastArrival int64

	// now is the cycle of the most recently issued command.
	now int64
	// cmdBusFree is the first cycle the command bus can take another
	// column (data) command. Row commands (ACT/PRE) use rowCmdFree:
	// at burst granularity one data burst spans several command-clock
	// slots, so row commands interleave freely with the data stream.
	cmdBusFree int64
	// rowCmdFree3 tracks row-command (ACT/PRE) slot occupancy in
	// third-cycles: the CA bus carries several command slots per data
	// burst (LPDDR5 issues commands at CK rate while a burst spans
	// four CK), so up to rowCmdSlots row commands may issue per burst
	// cycle.
	rowCmdFree3 int64
	// dataBusFree is the first cycle the data bus is available.
	dataBusFree int64
	// nextRead / nextWrite model channel-level read/write turnaround.
	nextRead  int64
	nextWrite int64
	// nextMAC holds per-rank earliest next all-bank MAC issue cycles.
	nextMAC []int64

	window         int
	refreshEnabled bool
	rowPolicy      RowPolicy
	// dualRowBuffer redirects all-bank (PIM) commands to shadow bank
	// state (see SetDualRowBuffer).
	dualRowBuffer bool
	shadow        []rank
	// lockstep is AllBankPasses' reusable fast-path state.
	lockstep lockstep

	stats ChannelStats
	// commands counts issued commands (one per pick) and visited the
	// queue entries the picks looked at. They measure the scheduler's
	// work, not the simulated DRAM, so they stay out of ChannelStats.
	commands, visited int64
}

// bankLoc is one bank's rank and bank state.
type bankLoc struct {
	rk *rank
	b  *bank
}

// RowPolicy selects what happens to a row after a column access.
type RowPolicy int

const (
	// OpenRow keeps rows open until a conflict or refresh closes them
	// (page-open policy) — best for locality-rich streams.
	OpenRow RowPolicy = iota
	// CloseRow auto-precharges after a column access unless another
	// visible request still wants the open row (RDA/WRA-style) — best
	// for random traffic, where it hides precharge latency.
	CloseRow
)

// DefaultWindow is the FR-FCFS reorder window (visible queue depth).
const DefaultWindow = 32

// rowCmdSlots is the number of row-command (ACT/PRE) slots available per
// burst cycle on the command bus.
const rowCmdSlots = 3

// NewChannel builds a scheduler for one channel of the given spec.
func NewChannel(spec *Spec) *Channel {
	c := &Channel{
		spec:           spec,
		t:              &spec.Timing,
		window:         DefaultWindow,
		refreshEnabled: true,
		freeHead:       noSlot,
		head:           noSlot,
		tail:           noSlot,
		visTail:        noSlot,
	}
	c.ranks = make([]rank, spec.Geometry.RanksPerChannel)
	c.nextMAC = make([]int64, spec.Geometry.RanksPerChannel)
	for i := range c.ranks {
		c.ranks[i] = newRank(spec.Geometry.BanksPerRank, spec.Timing.TREFI)
	}
	return c
}

// initBankLists allocates the per-bank visible lists on the first push, so
// a channel that only runs all-bank (PIM) commands never builds them.
func (c *Channel) initBankLists() {
	g := c.spec.Geometry
	nb := g.RanksPerChannel * g.BanksPerRank
	// The per-bank index arrays share one allocation.
	idx := make([]int32, 5*nb)
	c.bankHead = idx[0*nb : 1*nb : 1*nb]
	c.bankTail = idx[1*nb : 2*nb : 2*nb]
	c.hits = idx[2*nb : 3*nb : 3*nb]
	c.prepPos = idx[3*nb : 4*nb : 4*nb]
	c.prepBanks = idx[4*nb : 4*nb : 5*nb]
	c.seen = make([]int64, 2*nb)
	c.bankLoc = make([]bankLoc, nb)
	for i := 0; i < nb; i++ {
		c.bankHead[i] = noSlot
		c.bankTail[i] = noSlot
		c.prepPos[i] = -1
		rk := &c.ranks[i/g.BanksPerRank]
		c.bankLoc[i] = bankLoc{rk: rk, b: &rk.banks[i%g.BanksPerRank]}
	}
}

// SetRefreshEnabled toggles periodic refresh (enabled by default).
func (c *Channel) SetRefreshEnabled(v bool) { c.refreshEnabled = v }

// SetRowPolicy selects the row-buffer management policy (OpenRow default).
func (c *Channel) SetRowPolicy(p RowPolicy) { c.rowPolicy = p }

// SetWindow sets the FR-FCFS reorder window; w < 1 means strict FCFS.
// It panics if requests are queued: the window is set before enqueueing.
func (c *Channel) SetWindow(w int) {
	if c.count > 0 {
		panic("dram: SetWindow on a channel with queued requests")
	}
	c.window = max(w, 1)
}

// Now returns the cycle of the most recently issued command.
func (c *Channel) Now() int64 { return c.now }

// Stats returns a snapshot of the channel statistics. The snapshot is a
// pure copy: all counters (including refreshes) are folded into it at
// command-apply time, so calling Stats repeatedly — or merging snapshots
// taken at different times with Merge — never double-counts.
func (c *Channel) Stats() ChannelStats { return c.stats }

// chanLocalValid reports whether the channel-local coordinates of a are
// inside the geometry (the channel index is routed by the controller and
// not re-checked here).
func (a Addr) chanLocalValid(g Geometry) bool {
	return a.Rank >= 0 && a.Rank < g.RanksPerChannel &&
		a.Bank >= 0 && a.Bank < g.BanksPerRank &&
		a.Row >= 0 && a.Row < g.Rows &&
		a.Column >= 0 && a.Column < g.ColumnsPerRow()
}

// addrRangeError builds the enqueue rejection error for an address.
func addrRangeError(a Addr) error {
	return fmt.Errorf("dram: request address %v outside geometry", a)
}

// Enqueue adds a request to the channel queue. Requests must target this
// channel's rank/bank/row space; the channel index in the address is not
// re-checked. The request's Done field is written back on completion.
func (c *Channel) Enqueue(r *Request) error {
	if !r.Addr.chanLocalValid(c.spec.Geometry) {
		return addrRangeError(r.Addr)
	}
	c.push(*r, r)
	return nil
}

// EnqueueValue adds a request by value: the scheduler keeps its own copy
// and does not report the completion cycle back to the caller (it still
// lands in Stats().LastDone). This is the allocation-free enqueue path
// for streaming producers that only need aggregate results.
func (c *Channel) EnqueueValue(r Request) error {
	if !r.Addr.chanLocalValid(c.spec.Geometry) {
		return addrRangeError(r.Addr)
	}
	c.push(r, nil)
	return nil
}

// Pending returns the number of queued requests.
func (c *Channel) Pending() int { return c.count }

// HasReady reports whether a queued request has arrived by the current
// clock, so a step issues queue work without jumping to a future
// arrival. Co-schedulers use it to interleave SoC requests with PIM
// work. Under inOrder only the queue head is read; otherwise the queue
// is walked until an arrived request turns up.
func (c *Channel) HasReady() bool {
	for s := c.head; s != noSlot; s = c.slots[s].next {
		if c.slots[s].req.Arrival <= c.now {
			return true
		}
		if c.inOrder {
			break
		}
	}
	return false
}

// bankIndex returns the per-channel dense bank index of a.
func (c *Channel) bankIndex(a Addr) int32 {
	return int32(a.Rank*c.spec.Geometry.BanksPerRank + a.Bank)
}

// allocSlot returns a free slot index, growing the pool if needed.
func (c *Channel) allocSlot() int32 {
	if s := c.freeHead; s != noSlot {
		c.freeHead = c.slots[s].next
		return s
	}
	c.slots = append(c.slots, slot{})
	return int32(len(c.slots) - 1)
}

// push appends one request to the queue tail.
func (c *Channel) push(r Request, user *Request) {
	if c.bankHead == nil {
		c.initBankLists()
	}
	s := c.allocSlot()
	sl := &c.slots[s]
	sl.req = r
	sl.user = user
	sl.activated = false
	sl.pos = c.seq
	sl.bank = c.bankIndex(r.Addr)
	c.seq++
	sl.next, sl.prev = noSlot, noSlot
	sl.bnext, sl.bprev = noSlot, noSlot
	if c.tail == noSlot {
		c.head, c.tail = s, s
		c.inOrder = true
	} else {
		if r.Arrival < c.lastArrival {
			c.inOrder = false
		}
		c.slots[c.tail].next = s
		sl.prev = c.tail
		c.tail = s
	}
	c.lastArrival = r.Arrival
	c.count++
	if c.visCount < c.window {
		c.makeVisible(s)
	}
}

// firstInvisible returns the first queue entry beyond the visible window
// (noSlot if the window covers the whole queue).
func (c *Channel) firstInvisible() int32 {
	if c.visTail == noSlot {
		return c.head
	}
	return c.slots[c.visTail].next
}

// makeVisible extends the visible window by one entry: s must be the
// first invisible queue entry. It is appended to its bank's visible list
// (entries become visible in FCFS order, so appending keeps the list
// sorted by pos) and counted as a hit if it targets the open row.
func (c *Channel) makeVisible(s int32) {
	sl := &c.slots[s]
	b := sl.bank
	if t := c.bankTail[b]; t == noSlot {
		c.bankHead[b], c.bankTail[b] = s, s
	} else {
		c.slots[t].bnext = s
		sl.bprev = t
		c.bankTail[b] = s
	}
	c.countHit(sl)
	c.syncPrep(b)
	c.visTail = s
	c.visCount++
}

// class returns a request's command class index: 0 read, 1 write.
func class(r *Request) int {
	if r.Write {
		return 1
	}
	return 0
}

// countHit marks the visible entry sl a hit, and counts it, if it
// targets its bank's open row.
func (c *Channel) countHit(sl *slot) {
	b := c.bankLoc[sl.bank].b
	sl.hit = b.state == bankActive && sl.req.Addr.Row == b.openRow
	if sl.hit {
		c.hits[sl.bank]++
		c.hitTotal[class(&sl.req)]++
	}
}

// uncountHit takes sl out of the hit counts.
func (c *Channel) uncountHit(sl *slot) {
	if sl.hit {
		c.hits[sl.bank]--
		c.hitTotal[class(&sl.req)]--
		sl.hit = false
	}
}

// syncPrep puts bank b in the prep set exactly when it has visible work
// and no visible hit.
func (c *Channel) syncPrep(b int32) {
	want := c.bankHead[b] != noSlot && !c.rowStillWanted(b)
	if i := c.prepPos[b]; want && i < 0 {
		c.prepPos[b] = int32(len(c.prepBanks))
		c.prepBanks = append(c.prepBanks, b)
	} else if !want && i >= 0 {
		last := c.prepBanks[len(c.prepBanks)-1]
		c.prepBanks[i] = last
		c.prepPos[last] = i
		c.prepBanks = c.prepBanks[:len(c.prepBanks)-1]
		c.prepPos[b] = -1
	}
}

// lowestFloor returns the lowest channel floor among the command classes
// with hits left (MaxInt64 if none).
func lowestFloor(floor [2]int64, left [2]int32) int64 {
	l := int64(math.MaxInt64)
	for w, n := range left {
		if n > 0 {
			l = min(l, floor[w])
		}
	}
	return l
}

// rowStillWanted reports whether a visible request targets bank b's open
// row: a lookup of its hit counts.
func (c *Channel) rowStillWanted(b int32) bool {
	return c.hits[b] > 0
}

// recount recomputes bank b's hit counts after its row state changed.
func (c *Channel) recount(b int32) {
	for s := c.bankHead[b]; s != noSlot; s = c.slots[s].bnext {
		c.uncountHit(&c.slots[s])
		c.countHit(&c.slots[s])
	}
	c.syncPrep(b)
}

// recountAll recounts every bank, after a refresh or an all-bank command
// changed row states across a rank.
func (c *Channel) recountAll() {
	for b := range c.bankHead {
		c.recount(int32(b))
	}
}

// bankUnlink removes a visible entry from its bank list and its hit
// counts.
func (c *Channel) bankUnlink(s int32) {
	sl := &c.slots[s]
	b := sl.bank
	if sl.bprev != noSlot {
		c.slots[sl.bprev].bnext = sl.bnext
	} else {
		c.bankHead[b] = sl.bnext
	}
	if sl.bnext != noSlot {
		c.slots[sl.bnext].bprev = sl.bprev
	} else {
		c.bankTail[b] = sl.bprev
	}
	sl.bnext, sl.bprev = noSlot, noSlot
	c.uncountHit(sl)
	c.syncPrep(b)
}

// remove completes and frees a visible queue entry in O(1), sliding the
// visible window forward over the next invisible entry (if any).
func (c *Channel) remove(s int32) {
	sl := &c.slots[s]
	c.bankUnlink(s)
	if c.visTail == s {
		c.visTail = sl.prev
	}
	if sl.prev != noSlot {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next != noSlot {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail = sl.prev
	}
	c.count--
	c.visCount--
	if c.visCount < c.window {
		if cand := c.firstInvisible(); cand != noSlot {
			c.makeVisible(cand)
		}
	}
	sl.user = nil
	sl.next = c.freeHead
	c.freeHead = s
}

// advanceNow moves the channel clock forward to cycle t; it never moves
// it back.
func (c *Channel) advanceNow(t int64) { c.now = max(c.now, t) }

// candidate is one issuable command considered by the scheduler.
type candidate struct {
	kind     CommandKind
	slot     int32
	pos      uint64
	earliest int64
}

// better reports whether (e, pos) beats cand under the FR-FCFS total
// order: earlier issue cycle first, then FCFS position.
func (cand *candidate) better(e int64, pos uint64) bool {
	return e < cand.earliest || (e == cand.earliest && pos < cand.pos)
}

// Drain runs the scheduler until the queue is empty and returns the cycle
// at which the last request's data burst completed.
func (c *Channel) Drain() int64 {
	for c.count > 0 {
		c.step()
	}
	return c.stats.LastDone
}

// DrainUpTo runs until at most n requests remain (used by streaming
// producers to bound queue growth). A request needs a PRE, an ACT and
// its column command, and a refresh can close its row once more, so a
// scheduler that takes more than 4 steps per queued request plus 2 per
// bank is stuck issuing commands that complete nothing: DrainUpTo then
// returns an error instead of spinning.
func (c *Channel) DrainUpTo(n int) error {
	g := c.spec.Geometry
	budget := 4*c.count + 2*g.RanksPerChannel*g.BanksPerRank
	for c.count > n {
		if budget--; budget < 0 {
			return fmt.Errorf("dram: scheduler livelocked: %d requests still queued after the step budget", c.count)
		}
		c.step()
	}
	return nil
}

// StepOne issues exactly one command (or performs one refresh/idle jump)
// from the request queue. It exposes the scheduler's inner step for
// co-scheduling drivers that interleave queue traffic with all-bank ops.
func (c *Channel) StepOne() {
	c.step()
}

// step issues exactly one command (or performs one refresh).
func (c *Channel) step() {
	if c.count == 0 {
		return
	}
	if c.refreshEnabled {
		refreshed := false
		for ri := range c.ranks {
			if c.ranks[ri].refreshDue(c.now) {
				c.ranks[ri].applyRefresh(c.now, c.t)
				c.stats.Refreshes++
				refreshed = true
			}
		}
		if refreshed {
			c.recountAll()
		}
	}

	c.issue(c.pickCommand())
}

// pickCommand selects the next command FR-FCFS style. The queue must be
// non-empty: every visible request yields a column, ACT or PRE candidate
// whose earliest cycle already folds in its arrival, so a queue whose
// requests all lie in the future still picks one, and issuing it is the
// idle jump.
//
// The scheduler tracks the best column (data) command and the best
// preparatory command (ACT/PRE) separately. A preparatory command is
// issued ahead of a ready column command only when doing so does not
// delay it — modeling the command bus issuing row and column commands
// for different banks in parallel. Each winner is the lexicographic
// minimum over (earliest, FCFS position), as in the reference
// scheduler's window-order scan.
//
// The column winner comes from a scan of the visible queue in FCFS
// order, over row hits only. Every read hit's earliest cycle is at least
// the channel's read floor, every write hit's at least its write floor,
// and later entries lose ties, so the scan stops once the best hit is no
// later than the lowest floor among the classes with hits still ahead
// (under inOrder, no earlier than the next entry's arrival either, which
// bounds every later arrival). Under inOrder a bank's first hit of a
// class also beats its later ones, so those are skipped.
//
// ACT/PRE candidates come only from prep banks, which have no visible
// hit, so every visible entry of one is a candidate: an ACT on an idle
// bank, a PRE (closing a row no visible request wants) on an active one.
// Under inOrder the bank's list head wins.
func (c *Channel) pickCommand() candidate {
	var bestCol, bestPrep candidate
	haveCol, havePrep := false, false
	visited := int64(0)
	pick := c.commands + 1

	floor := [2]int64{c.columnEarliest(CmdRD), c.columnEarliest(CmdWR)}
	left := c.hitTotal
	limit := lowestFloor(floor, left)
	for s := c.head; left[0]+left[1] > 0; s = c.slots[s].next {
		sl := &c.slots[s]
		if haveCol && (bestCol.earliest <= limit || c.inOrder && bestCol.earliest <= sl.req.Arrival) {
			break
		}
		visited++
		if !sl.hit {
			continue
		}
		w := class(&sl.req)
		if left[w]--; left[w] == 0 {
			limit = lowestFloor(floor, left)
		}
		if c.inOrder {
			k := 2*int(sl.bank) + w
			if c.seen[k] == pick {
				continue
			}
			c.seen[k] = pick
		}
		b := c.bankLoc[sl.bank].b
		kind, e := CmdRD, b.nextRD
		if w == 1 {
			kind, e = CmdWR, b.nextWR
		}
		e = max(e, floor[w], sl.req.Arrival)
		if !haveCol || bestCol.better(e, sl.pos) {
			bestCol = candidate{kind: kind, slot: s, pos: sl.pos, earliest: e}
			haveCol = true
		}
	}

	rowCmdBase := max(c.rowCmdEarliest(), c.now)
	for _, bi := range c.prepBanks {
		loc := c.bankLoc[bi]
		b := loc.b
		kind, base := CmdPRE, max(b.nextPRE, rowCmdBase)
		if b.state != bankActive {
			kind, base = CmdACT, max(b.nextACT, loc.rk.earliestACT(), rowCmdBase)
		}
		for s := c.bankHead[bi]; s != noSlot; s = c.slots[s].bnext {
			visited++
			sl := &c.slots[s]
			e := max(base, sl.req.Arrival)
			if !havePrep || bestPrep.better(e, sl.pos) {
				bestPrep = candidate{kind: kind, slot: s, pos: sl.pos, earliest: e}
				havePrep = true
			}
			if c.inOrder {
				break
			}
		}
	}
	c.visited += visited

	// Row and column commands ride different command slots; issue the
	// preparatory command as long as it is not later than the best
	// column command.
	if havePrep && (!haveCol || bestPrep.earliest <= bestCol.earliest) {
		return bestPrep
	}
	return bestCol
}

// rowCmdEarliest returns the first cycle with a free row-command slot.
func (c *Channel) rowCmdEarliest() int64 {
	return c.rowCmdFree3 / rowCmdSlots
}

// consumeRowCmdSlot books one ACT/PRE slot at cycle `at`.
func (c *Channel) consumeRowCmdSlot(at int64) {
	if v := at * rowCmdSlots; c.rowCmdFree3 < v {
		c.rowCmdFree3 = v
	}
	c.rowCmdFree3++
}

// columnEarliest combines channel-level constraints for a column command.
func (c *Channel) columnEarliest(kind CommandKind) int64 {
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
func (c *Channel) issue(cand candidate) {
	sl := &c.slots[cand.slot]
	r := &sl.req
	rk := &c.ranks[r.Addr.Rank]
	b := &rk.banks[r.Addr.Bank]
	bi := sl.bank
	at := cand.earliest
	c.commands++

	switch cand.kind {
	case CmdPRE:
		b.apply(CmdPRE, 0, at, c.t)
		c.consumeRowCmdSlot(at)
		c.recount(bi)
	case CmdACT:
		b.apply(CmdACT, r.Addr.Row, at, c.t)
		rk.recordACT(at, c.t)
		sl.activated = true
		c.stats.Activations++
		c.consumeRowCmdSlot(at)
		c.recount(bi)
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
		if sl.activated {
			c.stats.RowMisses++
		} else {
			c.stats.RowHits++
		}
		if sl.user != nil {
			sl.user.Done = done
		}
		if done > c.stats.LastDone {
			c.stats.LastDone = done
		}
		c.remove(cand.slot)
		c.cmdBusFree = at + 1
		if c.rowPolicy == CloseRow && !c.rowStillWanted(bi) {
			// Auto-precharge (RDA/WRA): close as soon as the bank's
			// timing constraints allow, without a command-bus slot.
			b.apply(CmdPRE, 0, b.nextPRE, c.t)
			c.recount(bi)
		}
	}
	c.advanceNow(at)
}
