package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestNilTracerIsNoOp exercises every method on the disabled (nil)
// tracer: nothing may panic, record, or report state.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.CompleteArg(1, 2, "a", 0, 1, "x", 3)
	tr.InstantArg(1, 2, "b", 0, "x", 3)
	tr.Counter(1, "c", 0, 4)
	tr.ProcessName(1, "p")
	tr.ThreadName(1, 2, "t")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil || tr.Metadata() != nil {
		t.Fatal("nil tracer holds state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil tracer emits invalid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Fatalf("nil tracer emitted %d events", len(tf.TraceEvents))
	}
}

// TestRingEviction fills a 4-slot ring with 7 events and checks the
// oldest three were evicted, keeping the most recent window in order.
func TestRingEviction(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.InstantArg(0, 0, "e", float64(i), "", 0)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	snap := tr.Snapshot()
	for i, e := range snap {
		if want := float64(3 + i); e.TS != want {
			t.Errorf("snapshot[%d].TS = %v, want %v", i, e.TS, want)
		}
	}
}

// TestWriteJSONValidAndMonotonic records spans out of chronological
// order (as the simulator does: a slice is recorded when it *ends*) and
// checks the serialized stream parses as trace-event JSON with
// non-decreasing timestamps and metadata up front.
func TestWriteJSONValidAndMonotonic(t *testing.T) {
	tr := New(64)
	tr.ProcessName(1, "replica 0")
	tr.ThreadName(1, 0, "SoC lane")
	tr.CompleteArg(1, 0, "late", 50, 10, "", 0)
	tr.CompleteArg(1, 0, "early", 5, 40, "", 0) // recorded second, starts first
	tr.CompleteArg(1, 1, "decode", 20, 5, "query", 7)
	tr.InstantArg(1, 0, "arrival", 30, "", 0)
	tr.Counter(1, "depth", 35, 2)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int64          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(tf.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(tf.TraceEvents))
	}
	if tf.TraceEvents[0].Ph != "M" || tf.TraceEvents[1].Ph != "M" {
		t.Errorf("metadata not emitted first: %+v", tf.TraceEvents[:2])
	}
	last := -1.0
	for _, e := range tf.TraceEvents[2:] {
		if e.TS < last {
			t.Fatalf("timestamps not monotonic: %v after %v", e.TS, last)
		}
		last = e.TS
	}
	for _, e := range tf.TraceEvents {
		if e.Name == "decode" {
			if v, ok := e.Args["query"].(float64); !ok || v != 7 {
				t.Errorf("decode args = %v, want query=7", e.Args)
			}
		}
	}
}

// TestConcurrentRecording hammers one tracer from several goroutines;
// run under -race this pins the locking contract.
func TestConcurrentRecording(t *testing.T) {
	tr := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.CompleteArg(int64(g), 0, "work", float64(i), 1, "", 0)
				tr.Counter(int64(g), "n", float64(i), float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != 4000 {
		t.Fatalf("buffered+dropped = %d, want 4000", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRoundTrip checks the manifest serializes and carries the
// runtime facts.
func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("facilsim", []string{"-format", "json", "serving2"})
	m.WallSeconds = 1.5
	m.Experiments = []string{"serving2"}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "facilsim" || back.SchemaVersion != SchemaVersion ||
		back.GoVersion == "" || back.GitRev == "" || len(back.Args) != 3 {
		t.Fatalf("manifest lost fields: %+v", back)
	}
}
