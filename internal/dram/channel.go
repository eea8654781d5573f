package dram

import (
	"fmt"

	"facil/internal/obs"
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
	// ready marks the request as counted in readyCount (Arrival <= now).
	ready bool
	// gen is bumped on every free, invalidating stale arrival-heap
	// entries that still point at this slot.
	gen uint32
	// pos is the global enqueue sequence number — the FCFS tie-breaker
	// (monotone with the reference scheduler's queue index).
	pos uint64

	next, prev   int32 // queue-order list links
	bnext, bprev int32 // per-bank visible list links
}

// futureArrival is one queued request whose arrival is still in the
// future, tracked in Channel.future (a min-heap on arrival).
type futureArrival struct {
	arrival int64
	slot    int32
	gen     uint32
}

// Channel is a single-channel DRAM command scheduler implementing
// first-ready, first-come-first-served (FR-FCFS) scheduling with an
// open-row policy, bank/rank timing constraints, data-bus contention,
// read/write turnaround and periodic all-bank refresh.
//
// The scheduler's hot path is allocation-free in steady state: queued
// requests live in a reusable slot pool, FR-FCFS candidate selection
// walks per-bank intrusive lists (only banks with visible work), request
// completion unlinks in O(1) instead of compacting a slice, and the
// ready/arrival bookkeeping behind PendingReady is tracked
// incrementally instead of rescanned. The command schedule is
// bit-identical to the retained test-only ReferenceChannel (see
// refsched_test.go and the differential tests pinning the equivalence).
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
	// are "visible" to FR-FCFS. Visibility only ever extends forward
	// (enqueue fills a non-full window; completion slides it), except
	// for SetWindow, which rebuilds the boundary.
	visTail  int32
	visCount int

	// Per-bank visible lists indexed rank*BanksPerRank+bank, plus the
	// dense set of banks that currently have visible work.
	bankHead    []int32
	bankTail    []int32
	bankLen     []int32
	bankWrites  []int32 // visible writes per bank
	activeBanks []int32
	bankPos     []int32 // bank -> index into activeBanks, -1 if absent
	// bankLoc resolves a dense bank index to its rank and bank state,
	// precomputed so the pick loop never divides by BanksPerRank.
	bankLoc []bankLoc

	// inOrder holds while queued arrivals are non-decreasing in enqueue
	// order; lastArrival is the arrival of the most recent push. Under
	// inOrder the first entry of each command class in a bank list wins
	// that class, so pickCommand can stop walking early.
	inOrder     bool
	lastArrival int64

	// Arrival tracking: readyCount counts live requests with
	// Arrival <= now; future holds the rest, ordered by arrival. The heap
	// only feeds PendingReady: every candidate's earliest cycle already
	// folds in its arrival, so scheduling never reads it.
	readyCount int
	future     futureHeap

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

	// tr, when non-nil, receives sampled counter events (row hits/
	// misses, reads/writes, activations) every traceSampleEvery column
	// commands plus an instant per refresh, on the tracePID track with
	// cycle timestamps scaled by traceUSPerCycle.
	tr             *obs.Tracer
	tracePID       int64
	traceUSPerCyc  float64
	colSinceSample int
}

// bankLoc is one bank's rank and bank state.
type bankLoc struct {
	rk *rank
	b  *bank
}

// traceSampleEvery is the counter sampling stride in column commands: a
// sample every 64 bursts keeps trace volume ~1.5% of request volume
// while still resolving row-locality phase changes.
const traceSampleEvery = 64

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
	idx := make([]int32, 6*nb)
	c.bankHead = idx[0*nb : 1*nb : 1*nb]
	c.bankTail = idx[1*nb : 2*nb : 2*nb]
	c.bankLen = idx[2*nb : 3*nb : 3*nb]
	c.bankWrites = idx[3*nb : 4*nb : 4*nb]
	c.bankPos = idx[4*nb : 5*nb : 5*nb]
	c.activeBanks = idx[5*nb : 5*nb : 6*nb]
	c.bankLoc = make([]bankLoc, nb)
	for i := 0; i < nb; i++ {
		c.bankHead[i] = noSlot
		c.bankTail[i] = noSlot
		c.bankPos[i] = -1
		rk := &c.ranks[i/g.BanksPerRank]
		c.bankLoc[i] = bankLoc{rk: rk, b: &rk.banks[i%g.BanksPerRank]}
	}
}

// SetRefreshEnabled toggles periodic refresh (enabled by default).
func (c *Channel) SetRefreshEnabled(v bool) { c.refreshEnabled = v }

// SetRowPolicy selects the row-buffer management policy (OpenRow default).
func (c *Channel) SetRowPolicy(p RowPolicy) { c.rowPolicy = p }

// SetWindow sets the FR-FCFS reorder window; w < 1 means strict FCFS.
// The visible-window boundary is rebuilt, so SetWindow may be called with
// requests already queued.
func (c *Channel) SetWindow(w int) {
	if w < 1 {
		w = 1
	}
	c.window = w
	for c.visCount > w {
		c.hideVisTail()
	}
	for c.visCount < w {
		cand := c.firstInvisible()
		if cand == noSlot {
			break
		}
		c.makeVisible(cand)
	}
}

// SetTracer attaches an observability tracer to the scheduler: counter
// samples (row hits/misses, reads, writes, activations) are emitted on
// the pid track every traceSampleEvery column commands, and each
// all-bank refresh leaves an instant marker. usPerCycle converts
// scheduler cycles to trace microseconds (Timing.Seconds(1)*1e6). A nil
// tracer detaches; the disabled cost is one pointer test per command.
func (c *Channel) SetTracer(tr *obs.Tracer, pid int64, usPerCycle float64) {
	c.tr = tr
	c.tracePID = pid
	c.traceUSPerCyc = usPerCycle
	c.colSinceSample = 0
}

// traceCounters emits one sample of every scheduler counter at cycle at.
func (c *Channel) traceCounters(at int64) {
	ts := float64(at) * c.traceUSPerCyc
	c.tr.Counter(c.tracePID, "row hits", ts, float64(c.stats.RowHits))
	c.tr.Counter(c.tracePID, "row misses", ts, float64(c.stats.RowMisses))
	c.tr.Counter(c.tracePID, "reads", ts, float64(c.stats.Reads))
	c.tr.Counter(c.tracePID, "writes", ts, float64(c.stats.Writes))
	c.tr.Counter(c.tracePID, "activations", ts, float64(c.stats.Activations))
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

// PendingReady returns the number of queued requests that have arrived by
// the current clock and can therefore be scheduled without advancing time
// to a future arrival. Co-schedulers use it to interleave SoC requests
// with PIM work. The count is tracked incrementally (O(1) here).
func (c *Channel) PendingReady() int { return c.readyCount }

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
	sl.ready = false
	sl.pos = c.seq
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
	if r.Arrival <= c.now {
		sl.ready = true
		c.readyCount++
	} else {
		c.future.push(futureArrival{arrival: r.Arrival, slot: s, gen: sl.gen})
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
// sorted by pos).
func (c *Channel) makeVisible(s int32) {
	sl := &c.slots[s]
	b := c.bankIndex(sl.req.Addr)
	if t := c.bankTail[b]; t == noSlot {
		c.bankHead[b], c.bankTail[b] = s, s
		c.bankPos[b] = int32(len(c.activeBanks))
		c.activeBanks = append(c.activeBanks, b)
	} else {
		c.slots[t].bnext = s
		sl.bprev = t
		c.bankTail[b] = s
	}
	c.bankLen[b]++
	if sl.req.Write {
		c.bankWrites[b]++
	}
	c.visTail = s
	c.visCount++
}

// bankUnlink removes a visible entry from its bank list, retiring the
// bank from the active set when its last visible entry leaves.
func (c *Channel) bankUnlink(s int32) {
	sl := &c.slots[s]
	b := c.bankIndex(sl.req.Addr)
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
	c.bankLen[b]--
	if sl.req.Write {
		c.bankWrites[b]--
	}
	if c.bankLen[b] == 0 {
		i := c.bankPos[b]
		last := c.activeBanks[len(c.activeBanks)-1]
		c.activeBanks[i] = last
		c.bankPos[last] = i
		c.activeBanks = c.activeBanks[:len(c.activeBanks)-1]
		c.bankPos[b] = -1
	}
}

// hideVisTail shrinks the visible window by one entry (SetWindow only).
func (c *Channel) hideVisTail() {
	s := c.visTail
	c.bankUnlink(s)
	c.visTail = c.slots[s].prev
	c.visCount--
}

// remove completes and frees a visible queue entry in O(1), sliding the
// visible window forward over the next invisible entry (if any).
func (c *Channel) remove(s int32) {
	sl := &c.slots[s]
	if sl.ready {
		c.readyCount--
	}
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
	sl.gen++
	sl.next = c.freeHead
	c.freeHead = s
}

// advanceNow moves the channel clock forward to cycle t, promoting
// future arrivals that have now been reached into the ready count. All
// clock advances funnel through here so PendingReady stays exact.
func (c *Channel) advanceNow(t int64) {
	if t <= c.now {
		return
	}
	c.now = t
	for len(c.future) > 0 && c.future[0].arrival <= t {
		fa := c.future.pop()
		sl := &c.slots[fa.slot]
		// A stale heap entry (slot since completed and reused) is
		// recognized by its generation stamp and dropped.
		if sl.gen == fa.gen && !sl.ready {
			sl.ready = true
			c.readyCount++
		}
	}
}

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
// producers to bound queue growth).
func (c *Channel) DrainUpTo(n int) {
	for c.count > n {
		c.step()
	}
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
		for ri := range c.ranks {
			if c.ranks[ri].refreshDue(c.now) {
				c.ranks[ri].applyRefresh(c.now, c.t)
				c.stats.Refreshes++
				if c.tr != nil {
					c.tr.InstantArg(c.tracePID, 0, "refresh",
						float64(c.now)*c.traceUSPerCyc, "rank", float64(ri))
				}
			}
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
// for different banks in parallel.
//
// Candidate selection walks only banks with visible work (the per-bank
// lists), hoisting the bank- and channel-level earliest-issue floors out
// of the per-request loop. The winner is the lexicographic minimum over
// (earliest, FCFS position), which is iteration-order independent, so
// walking bank-by-bank selects exactly the command the reference
// scheduler's window-order scan selects.
//
// While inOrder holds, pos rises strictly and arrival never falls along
// each bank list, so within one class (read hit, write hit, ACT) the
// candidate earliest cycle max(floor, arrival) never decreases and the
// first entry wins. The walk then stops once every class the bank has
// visible entries of has produced its first hit, and an idle bank takes
// its head as the ACT candidate. A bank without hits is still walked in
// full, since a hit further down must suppress its precharge.
func (c *Channel) pickCommand() candidate {
	var bestCol, bestPrep candidate
	haveCol, havePrep := false, false

	rowCmdBase := maxi64(c.rowCmdEarliest(), c.now)
	rdBase := c.columnEarliest(CmdRD)
	wrBase := c.columnEarliest(CmdWR)

	for _, bi := range c.activeBanks {
		loc := c.bankLoc[bi]
		b := loc.b
		head := c.bankHead[bi]

		if b.state == bankActive {
			open := b.openRow
			// One scan: requests on the open row are column (row hit)
			// candidates; the rest want a precharge, which is legal
			// only if no visible request still targets the open row
			// (the FR part — an open row with pending hits must not
			// be closed).
			rdEarliest := maxi64(b.nextRD, rdBase)
			wrEarliest := maxi64(b.nextWR, wrBase)
			preEarliest := maxi64(b.nextPRE, rowCmdBase)
			var hit, pre candidate
			haveHit, havePre := false, false
			// Classes still without a first hit; a class the bank has
			// no visible entries of has nothing to find.
			wantRD := c.bankLen[bi] > c.bankWrites[bi]
			wantWR := c.bankWrites[bi] > 0
			for s := head; s != noSlot; s = c.slots[s].bnext {
				sl := &c.slots[s]
				if sl.req.Addr.Row == open {
					kind, e := CmdRD, rdEarliest
					if sl.req.Write {
						kind, e = CmdWR, wrEarliest
						wantWR = false
					} else {
						wantRD = false
					}
					if sl.req.Arrival > e {
						e = sl.req.Arrival
					}
					if !haveHit || hit.better(e, sl.pos) {
						hit = candidate{kind: kind, slot: s, pos: sl.pos, earliest: e}
						haveHit = true
					}
					if c.inOrder && !wantRD && !wantWR {
						break
					}
				} else if !haveHit {
					// Collecting a PRE candidate is pointless once a
					// hit is seen, but hits later in the list must
					// still suppress it — resolved after the scan.
					e := preEarliest
					if sl.req.Arrival > e {
						e = sl.req.Arrival
					}
					if !havePre || pre.better(e, sl.pos) {
						pre = candidate{kind: CmdPRE, slot: s, pos: sl.pos, earliest: e}
						havePre = true
					}
				}
			}
			if haveHit {
				if !haveCol || bestCol.better(hit.earliest, hit.pos) {
					bestCol = hit
					haveCol = true
				}
			} else if havePre {
				if !havePrep || bestPrep.better(pre.earliest, pre.pos) {
					bestPrep = pre
					havePrep = true
				}
			}
			continue
		}

		// Idle bank: every visible request is an ACT candidate; only
		// the arrival varies, so the floors hoist out of the loop.
		actBase := maxi64(maxi64(b.nextACT, loc.rk.earliestACT()), rowCmdBase)
		var act candidate
		for s := head; s != noSlot; s = c.slots[s].bnext {
			sl := &c.slots[s]
			e := actBase
			if sl.req.Arrival > e {
				e = sl.req.Arrival
			}
			if s == head || act.better(e, sl.pos) {
				act = candidate{kind: CmdACT, slot: s, pos: sl.pos, earliest: e}
			}
			if c.inOrder {
				break
			}
		}
		if !havePrep || bestPrep.better(act.earliest, act.pos) {
			bestPrep = act
			havePrep = true
		}
	}

	// Row and column commands ride different command slots; issue the
	// preparatory command as long as it is not later than the best
	// column command.
	if havePrep && (!haveCol || bestPrep.earliest <= bestCol.earliest) {
		return bestPrep
	}
	return bestCol
}

// rowStillWanted reports whether any visible request targets row a.Row in
// a's bank — an O(length of that bank's visible list) walk instead of an
// O(window) queue rescan.
func (c *Channel) rowStillWanted(a Addr) bool {
	for s := c.bankHead[c.bankIndex(a)]; s != noSlot; s = c.slots[s].bnext {
		if c.slots[s].req.Addr.Row == a.Row {
			return true
		}
	}
	return false
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
	at := cand.earliest

	switch cand.kind {
	case CmdPRE:
		b.apply(CmdPRE, 0, at, c.t)
		c.consumeRowCmdSlot(at)
	case CmdACT:
		b.apply(CmdACT, r.Addr.Row, at, c.t)
		rk.recordACT(at, c.t)
		sl.activated = true
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
		if sl.activated {
			c.stats.RowMisses++
		} else {
			c.stats.RowHits++
		}
		if c.tr != nil {
			c.colSinceSample++
			if c.colSinceSample >= traceSampleEvery {
				c.colSinceSample = 0
				c.traceCounters(at)
			}
		}
		if sl.user != nil {
			sl.user.Done = done
		}
		if done > c.stats.LastDone {
			c.stats.LastDone = done
		}
		a := r.Addr
		c.remove(cand.slot)
		c.cmdBusFree = at + 1
		if c.rowPolicy == CloseRow && !c.rowStillWanted(a) {
			// Auto-precharge (RDA/WRA): close as soon as the bank's
			// timing constraints allow, without a command-bus slot.
			b.apply(CmdPRE, 0, b.nextPRE, c.t)
		}
	}
	c.advanceNow(at)
}

// futureHeap is a binary min-heap of pending arrivals, ordered by arrival
// cycle. It is hand-rolled (instead of container/heap) so push and pop
// stay allocation- and interface-free on the scheduler hot path.
type futureHeap []futureArrival

// push adds one entry, sifting it up.
func (h *futureHeap) push(fa futureArrival) {
	*h = append(*h, fa)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].arrival <= s[i].arrival {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes and returns the minimum entry. The caller must ensure the
// heap is non-empty.
func (h *futureHeap) pop() futureArrival {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].arrival < s[min].arrival {
			min = l
		}
		if r < n && s[r].arrival < s[min].arrival {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
