package serve

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

// event is one value-typed entry of the simulator's event queue.
type event struct {
	at  float64
	seq int64 // tie-break: FIFO among simultaneous events
	// q is the query-slab index the event targets (initial arrivals are
	// not events — they wait in the arrival FIFO).
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

// before orders events by (at, seq).
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a binary min-heap of events by (at, seq). The serving
// experiments never hold more than a handful of events at once, so a
// plain heap is all the queue needs; the slice keeps its capacity, so
// the steady state allocates nothing.
type eventQueue []event

// push inserts ev, sifting a hole up from the new leaf.
func (h *eventQueue) push(ev event) {
	*h = append(*h, event{})
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the minimum event; the queue must not be
// empty. The last leaf fills the root's hole, sifted down.
func (h *eventQueue) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}
