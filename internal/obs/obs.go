// Package obs is the observability layer of the simulation stack: a
// lightweight structured event tracer plus a reproducibility manifest.
//
// The tracer records simulator activity — lane occupancy spans, queue
// depth counters, admission/rejection instants, DRAM scheduler counters —
// into a fixed-capacity ring buffer and serializes it in the Chrome
// trace-event format (the `trace_event` JSON schema), so a serving
// timeline opens directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing with no conversion step.
//
// Tracing is off by default and is designed to cost nothing when off: a
// nil *Tracer is the disabled tracer, every recording method is a
// nil-receiver no-op, and BenchmarkTracerDisabled pins the disabled-path
// overhead (a single pointer test, ≤2 ns/event). When enabled, the hot
// path appends a fixed-size Event value into a preallocated ring — no
// allocation, no formatting; all rendering happens in WriteJSON after
// the simulation finishes.
package obs

import "sync"

// Phase is the trace-event phase discriminator (the "ph" field of the
// Chrome trace-event format).
type Phase byte

// The phases the tracer emits. Complete events carry a start timestamp
// plus a duration (one slice in the timeline), instants are zero-width
// markers, counters render as stacked area charts, and metadata events
// name the process/thread tracks.
const (
	// PhaseComplete is a duration slice ("X"): ts + dur.
	PhaseComplete Phase = 'X'
	// PhaseInstant is a zero-width marker ("i").
	PhaseInstant Phase = 'i'
	// PhaseCounter is a sampled counter track ("C").
	PhaseCounter Phase = 'C'
	// PhaseMetadata names a process or thread track ("M").
	PhaseMetadata Phase = 'M'
)

// Event is one fixed-size trace record. Timestamps and durations are in
// trace microseconds (the unit Perfetto expects); PID/TID select the
// process and thread track the event renders on. Exactly one optional
// numeric argument (ArgName/Arg) is carried inline so the hot path never
// allocates; Str is only used by metadata events (track names).
type Event struct {
	// Phase discriminates the record kind (complete/instant/counter/
	// metadata).
	Phase Phase
	// PID and TID are the process and thread track identifiers.
	PID, TID int64
	// TS is the start timestamp in microseconds; Dur the duration of a
	// complete event (0 otherwise).
	TS, Dur float64
	// Name labels the slice, marker or counter series.
	Name string
	// ArgName and Arg carry one optional numeric argument ("" = none).
	ArgName string
	// Arg is the numeric argument value.
	Arg float64
	// Str is the string argument of metadata events (the track name).
	Str string
}

// DefaultCapacity is the ring size New uses when given a non-positive
// capacity: 256 Ki events (~30 MB), enough for several serving2 sweeps.
const DefaultCapacity = 1 << 18

// Tracer is a bounded in-memory trace recorder. A nil *Tracer is the
// disabled tracer: every method is a nil-safe no-op, so callers thread a
// possibly-nil tracer through hot paths without guards.
//
// A Tracer is safe for concurrent use; recording takes one short mutex
// hold (parallel sweep points share a tracer). When the ring is full the
// oldest events are overwritten — the trace keeps the *most recent*
// window, and Dropped reports how many events were evicted. Metadata
// (track names) is stored out of band and never evicted.
type Tracer struct {
	mu      sync.Mutex
	events  []Event // ring storage, len grows to cap then stays
	start   int     // index of the oldest event once wrapped
	dropped uint64
	meta    []Event
}

// New builds an enabled tracer holding at most capacity events
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{events: make([]Event, 0, capacity)}
}

// Enabled reports whether the tracer records events (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// record appends e to the ring, evicting the oldest event when full.
func (t *Tracer) record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, e)
	} else {
		t.events[t.start] = e
		t.start++
		if t.start == len(t.events) {
			t.start = 0
		}
		t.dropped++
	}
	t.mu.Unlock()
}

// CompleteArg records a duration slice on (pid, tid) starting at tsUS
// and lasting durUS microseconds, with one numeric argument attached
// (none when argName is empty).
func (t *Tracer) CompleteArg(pid, tid int64, name string, tsUS, durUS float64, argName string, arg float64) {
	if t == nil {
		return
	}
	t.record(Event{Phase: PhaseComplete, PID: pid, TID: tid, Name: name, TS: tsUS, Dur: durUS, ArgName: argName, Arg: arg})
}

// InstantArg records a zero-width marker on (pid, tid) at tsUS, with
// one numeric argument attached (none when argName is empty).
func (t *Tracer) InstantArg(pid, tid int64, name string, tsUS float64, argName string, arg float64) {
	if t == nil {
		return
	}
	t.record(Event{Phase: PhaseInstant, PID: pid, TID: tid, Name: name, TS: tsUS, ArgName: argName, Arg: arg})
}

// Counter records a sample of the named counter series on pid at tsUS.
// Consecutive samples of one name render as a stepped area chart.
func (t *Tracer) Counter(pid int64, name string, tsUS, value float64) {
	if t == nil {
		return
	}
	t.record(Event{Phase: PhaseCounter, PID: pid, Name: name, TS: tsUS, ArgName: "value", Arg: value})
}

// ProcessName labels the pid track (trace viewers sort and title process
// groups by it). Metadata is never evicted by ring wrap-around.
func (t *Tracer) ProcessName(pid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta = append(t.meta, Event{Phase: PhaseMetadata, PID: pid, Name: "process_name", Str: name})
	t.mu.Unlock()
}

// ThreadName labels the (pid, tid) track.
func (t *Tracer) ThreadName(pid, tid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta = append(t.meta, Event{Phase: PhaseMetadata, PID: pid, TID: tid, Name: "thread_name", Str: name})
	t.mu.Unlock()
}

// Len returns the number of buffered (non-metadata) events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events the ring evicted to make room.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the buffered events oldest-first (metadata excluded).
// The returned slice is a copy; recording may continue concurrently.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Metadata returns a copy of the recorded track-name events.
func (t *Tracer) Metadata() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.meta...)
}
