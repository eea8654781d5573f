package serve

import "math/bits"

// evKind discriminates simulator events.
type evKind int8

const (
	// evArrival enqueues a query at the admission controller.
	evArrival evKind = iota
	// evPrefillDone frees a replica's SoC lane and hands the query to
	// the decode lane (first token emitted here).
	evPrefillDone
	// evQuantumDone ends one decode scheduling quantum on a replica's
	// PIM lane (or, for degraded queries, its SoC lane): the query
	// either finished or rejoins the decode queue.
	evQuantumDone
	// evLaneDown starts (or extends) a PIM-lane outage on a replica;
	// scheduled by the fault layer only.
	evLaneDown
	// evLaneUp ends a PIM-lane outage, unless a later-ending overlap
	// still holds the lane down.
	evLaneUp
)

// event is one value-typed entry of the simulator's timing wheel. Events
// live in the wheel's slab arena and link into slot buckets (or the free
// list) through next; the hot loop never boxes one on the heap.
type event struct {
	at  float64
	seq int64 // tie-break: FIFO among simultaneous events
	// next is the intrusive slab link: the following event in this slot
	// bucket, far list neighbourhood or free list (-1 = none).
	next int32
	// q is the query-slab index the event targets (initial arrivals are
	// not events — they stream from the arrival cursor).
	q    int32
	rep  int32 // replica index (evPrefillDone, evQuantumDone, lane events)
	kind evKind
	// soc marks a degraded quantum that ran on the SoC lane.
	soc bool
	// steps is the number of decode steps the ending quantum covered.
	steps int32
	// dur is the token-emitting duration of the ending quantum
	// (excluding any fault-recovery penalty that preceded it), and
	// factor the thermal slowdown it was dispatched under — stored so
	// completion reconstructs the emission times without recomputing
	// under different fault conditions.
	dur    float64
	factor float64
	// until is the outage end carried by evLaneDown.
	until float64
}

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots each.
// Level l buckets events whose tick, right-shifted by l*wheelBits, lands
// within wheelSlots blocks of the current tick; events beyond the top
// level's reach overflow into the far list.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelTopShift is the top level's block shift: when the current
	// tick crosses a top-level block boundary the far list is
	// redistributed, keeping every far event later than every wheel
	// event.
	wheelTopShift = wheelBits * (wheelLevels - 1)
)

// wheel is a hierarchical timing wheel (calendar queue) ordered by
// (at, seq), the optimized replacement for the global event heap. Events
// are hashed by discretized time (tick = at * invW) into per-level slot
// buckets tracked by occupancy bitmaps: level 0 buckets one tick per
// slot and keeps its lists sorted, higher levels cover geometrically
// wider windows and cascade down as time reaches them, so pops cost
// O(levels) bitmap scans amortized and an idle gap is crossed in one
// jump — no per-tick work. The ordering contract is exactly the old
// heap's: minimum (at, seq) first.
//
// Two invariants carry the proof of pop-order correctness:
//
//  1. Every stored tick is >= cur, and cur only advances to the window
//     start of the earliest occupied slot, so circular slot distance
//     from the per-level cursor equals block distance and the earliest
//     occupied slot is found by a rotated trailing-zeros scan.
//  2. Far events always sort after every wheel event: an event enters
//     the far list only when it is >= wheelSlots top-level blocks ahead,
//     and the far list is redistributed whenever cur crosses a top-level
//     block boundary, before any nearer insert could land in the wheel.
type wheel struct {
	arena eventArena
	invW  float64 // ticks per simulated second
	cur   int64   // current tick; every stored tick is >= cur
	count int     // scheduled events not yet popped (far included)

	bitmap [wheelLevels]uint64
	slot   [wheelLevels][wheelSlots]int32

	far        []int32
	farScratch []int32
}

// init readies the wheel with the given tick rate (ticks per simulated
// second). Finer ticks spread simultaneous events across level-0 slots;
// coarser ticks push more ordering work into the sorted level-0 lists.
func (w *wheel) init(invW float64) {
	w.arena.reset()
	w.invW = invW
	w.cur = 0
	w.count = 0
	for l := range w.slot {
		w.bitmap[l] = 0
		for s := range w.slot[l] {
			w.slot[l][s] = -1
		}
	}
	w.far = w.far[:0]
}

// tickOf discretizes a timestamp, clamped so a tick never precedes cur
// (inserts are never earlier than the event being processed).
func (w *wheel) tickOf(at float64) int64 {
	t := int64(at * w.invW)
	if t < w.cur {
		t = w.cur
	}
	return t
}

// schedule inserts an event drawn from the slab arena.
func (w *wheel) schedule(ev event) {
	idx := w.arena.alloc()
	w.arena.slab[idx] = ev
	w.place(idx)
	w.count++
}

// place hashes a slab event into its slot by block distance from cur, or
// into the far overflow when beyond the top level's reach.
func (w *wheel) place(idx int32) {
	e := &w.arena.slab[idx]
	t := w.tickOf(e.at)
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		if (t>>shift)-(w.cur>>shift) < wheelSlots {
			s := int((t >> shift) & wheelMask)
			if l == 0 {
				w.insertSorted(s, idx)
			} else {
				e.next = w.slot[l][s]
				w.slot[l][s] = idx
			}
			w.bitmap[l] |= 1 << uint(s)
			return
		}
	}
	e.next = -1
	w.far = append(w.far, idx)
}

// insertSorted links a slab event into a level-0 bucket in (at, seq)
// order, so the bucket head is always the slot's minimum.
func (w *wheel) insertSorted(s int, idx int32) {
	e := &w.arena.slab[idx]
	p := &w.slot[0][s]
	for *p >= 0 {
		o := &w.arena.slab[*p]
		if e.at < o.at || (e.at == o.at && e.seq < o.seq) {
			break
		}
		p = &o.next
	}
	e.next = *p
	*p = idx
}

// candidate returns the window-start tick and slot of the earliest
// occupied slot at one level: a lower bound on every tick stored there
// (exact for level 0).
func (w *wheel) candidate(l int) (int64, int, bool) {
	bm := w.bitmap[l]
	if bm == 0 {
		return 0, 0, false
	}
	shift := uint(wheelBits * l)
	cursor := uint((w.cur >> shift) & wheelMask)
	rot := bm>>cursor | bm<<(wheelSlots-cursor)
	d := int64(bits.TrailingZeros64(rot))
	s := int((int64(cursor) + d) & wheelMask)
	return ((w.cur >> shift) + d) << shift, s, true
}

// setCur advances the current tick; crossing a top-level block boundary
// redistributes the far list so invariant 2 holds before any new insert.
func (w *wheel) setCur(t int64) {
	cross := t>>wheelTopShift != w.cur>>wheelTopShift
	w.cur = t
	if cross && len(w.far) > 0 {
		w.redistributeFar()
	}
}

// redistributeFar re-places every far event against the current tick;
// events now within the wheel's span land in slots, the rest return to
// the far list.
func (w *wheel) redistributeFar() {
	old := w.far
	w.far = w.farScratch[:0]
	for _, idx := range old {
		w.place(idx)
	}
	w.farScratch = old[:0]
}

// pop unlinks and returns the slab index of the wheel's earliest event
// by (at, seq). When hasLim is set, limAt/limTick describe the caller's
// next arrival (whose sequence number is always lower than any wheel
// event's): if that arrival sorts first — arrivals win (at) ties — pop
// returns (-1, true) without disturbing the wheel. An empty wheel
// returns (-1, hasLim). Cascades performed on the way keep cur <=
// limTick, so events the arrival's handler schedules still satisfy
// invariant 1.
func (w *wheel) pop(hasLim bool, limAt float64, limTick int64) (int32, bool) {
	for {
		bestL := -1
		var bestW int64
		var bestS int
		// Smallest window start wins; ties go to the higher level, whose
		// events may be as early as the window start and must cascade
		// before the lower level's exact minimum is trusted.
		for l := wheelLevels - 1; l >= 0; l-- {
			if W, s, ok := w.candidate(l); ok && (bestL < 0 || W < bestW) {
				bestL, bestW, bestS = l, W, s
			}
		}
		if bestL < 0 {
			if len(w.far) == 0 {
				return -1, hasLim
			}
			// Wheel empty: the earliest far event is the global minimum.
			fi := 0
			for i := 1; i < len(w.far); i++ {
				a, b := &w.arena.slab[w.far[i]], &w.arena.slab[w.far[fi]]
				if a.at < b.at || (a.at == b.at && a.seq < b.seq) {
					fi = i
				}
			}
			m := &w.arena.slab[w.far[fi]]
			if hasLim && limAt <= m.at {
				return -1, true
			}
			// Rebase the wheel onto the far horizon and retry.
			if t := int64(m.at * w.invW); t > w.cur {
				w.cur = t
			}
			w.redistributeFar()
			continue
		}
		if hasLim && limTick < bestW {
			return -1, true
		}
		if bestL == 0 {
			head := w.slot[0][bestS]
			e := &w.arena.slab[head]
			if hasLim && limAt <= e.at {
				return -1, true
			}
			w.slot[0][bestS] = e.next
			if e.next < 0 {
				w.bitmap[0] &^= 1 << uint(bestS)
			}
			e.next = -1
			w.setCur(bestW)
			w.count--
			return head, false
		}
		// Cascade the earliest higher-level slot down and rescan. cur
		// moves to the slot's window start first, so every re-placed
		// event lands at a strictly lower level.
		w.setCur(bestW)
		head := w.slot[bestL][bestS]
		w.slot[bestL][bestS] = -1
		w.bitmap[bestL] &^= 1 << uint(bestS)
		for head >= 0 {
			nx := w.arena.slab[head].next
			w.place(head)
			head = nx
		}
	}
}
