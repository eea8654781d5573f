package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// jsonEvent is the wire form of one trace-event record.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON Object Format of the trace-event spec, the shape
// Perfetto and chrome://tracing load directly.
type traceFile struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// WriteJSON serializes the buffered trace in Chrome trace-event JSON
// object format. Metadata (track names) is emitted first, stably sorted
// by (PID, TID), then every buffered event stably sorted by (timestamp,
// PID), so the file's event stream is monotonic even though duration
// slices are recorded at their *end* time. The order is canonical when
// each PID has one recorder (each sim owns its PID block): records of
// one PID keep their recording order, and records of different PIDs
// interleave by key alone, so concurrent recorders write the same bytes
// in any interleaving as long as the ring evicted nothing. WriteJSON is
// a cold path: it allocates freely and may run while recording
// continues (it works on a snapshot).
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Snapshot()
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		return a.TS < b.TS || a.TS == b.TS && a.PID < b.PID
	})
	meta := t.Metadata()
	sort.SliceStable(meta, func(i, j int) bool {
		a, b := &meta[i], &meta[j]
		return a.PID < b.PID || a.PID == b.PID && a.TID < b.TID
	})
	out := traceFile{DisplayTimeUnit: "ms", TraceEvents: make([]jsonEvent, 0, len(events)+len(meta))}
	for _, m := range meta {
		out.TraceEvents = append(out.TraceEvents, jsonEvent{
			Name: m.Name, Ph: string(PhaseMetadata), PID: m.PID, TID: m.TID,
			Args: map[string]any{"name": m.Str},
		})
	}
	for _, e := range events {
		je := jsonEvent{Name: e.Name, Ph: string(e.Phase), TS: e.TS, PID: e.PID, TID: e.TID}
		if e.Phase == PhaseComplete {
			d := e.Dur
			je.Dur = &d
		}
		if e.Phase == PhaseInstant {
			je.S = "t" // thread-scoped marker
		}
		if e.ArgName != "" {
			je.Args = map[string]any{e.ArgName: e.Arg}
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the trace to path (0644), creating or truncating it.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
