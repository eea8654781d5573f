package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"facil/internal/engine"
	"facil/internal/obs"
	"facil/internal/workload"
)

// traceEventsOf runs one small simulation with a tracer attached and
// returns the parsed trace-event stream.
func traceEventsOf(t *testing.T, cfg SimConfig) ([]parsedEvent, Metrics) {
	t.Helper()
	tr := obs.New(1 << 14)
	cfg.Tracer = tr
	m, err := Run(servingSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []parsedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid trace-event JSON: %v", err)
	}
	return tf.TraceEvents, m
}

// parsedEvent mirrors the trace-event wire fields the tests inspect.
type parsedEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceConfig is a small cooperative scenario that exercises admission
// pressure (tiny queue cap).
func traceConfig(mode Mode) SimConfig {
	return SimConfig{
		Mode:        mode,
		Kind:        engine.FACIL,
		Replicas:    2,
		ArrivalRate: 2,
		Queries:     30,
		Workload:    workload.AlpacaSpec(),
		Seed:        7,
		QueueCap:    4,
	}
}

// TestTraceValidAndMonotonic checks, for every mode, that the recorded
// trace parses as trace-event JSON, timestamps never decrease, metadata
// precedes data, and the event population matches the run's metrics
// (arrivals+rejects on the queue track, one prefill span per admitted
// query).
func TestTraceValidAndMonotonic(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			evs, m := traceEventsOf(t, traceConfig(mode))
			if len(evs) == 0 {
				t.Fatal("empty trace")
			}
			last := -1.0
			metaDone := false
			counts := map[string]int{}
			for _, e := range evs {
				if e.Ph == "M" {
					if metaDone {
						t.Fatalf("metadata event %q after data events", e.Name)
					}
					continue
				}
				metaDone = true
				if e.TS < last {
					t.Fatalf("timestamps not monotonic: %q at %v after %v", e.Name, e.TS, last)
				}
				last = e.TS
				counts[e.Name+"/"+e.Ph]++
			}
			if got, want := counts["arrival/i"], m.Admitted; got != want {
				t.Errorf("arrival instants = %d, want Admitted = %d", got, want)
			}
			if got, want := counts["reject/i"], m.Rejected; got != want {
				t.Errorf("reject instants = %d, want Rejected = %d", got, want)
			}
			if got, want := counts["complete/i"], m.Completed; got != want {
				t.Errorf("complete instants = %d, want Completed = %d", got, want)
			}
			if got, want := counts["prefill/X"], m.Admitted; got != want {
				t.Errorf("prefill spans = %d, want %d", got, want)
			}
			if counts["in-system queries/C"] == 0 {
				t.Error("no queue-depth counter samples")
			}
			if mode == RelayoutHybrid && counts["relayout/X"] == 0 {
				t.Error("relayout-hybrid trace has no relayout windows")
			}
			if mode != RelayoutHybrid && counts["relayout/X"] != 0 {
				t.Errorf("%s trace has %d relayout windows", mode, counts["relayout/X"])
			}
		})
	}
}

// TestTraceDoesNotPerturbMetrics pins that attaching a tracer changes
// nothing about the simulation: metrics with and without tracing must
// be identical.
func TestTraceDoesNotPerturbMetrics(t *testing.T) {
	cfg := traceConfig(Cooperative)
	plain, err := Run(servingSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, traced := func() ([]parsedEvent, Metrics) { evs, m := traceEventsOf(t, cfg); return evs, m }()
	if plain.Completed != traced.Completed || plain.Makespan != traced.Makespan ||
		plain.TTFT != traced.TTFT || plain.TTLT != traced.TTLT {
		t.Fatalf("tracing perturbed the run:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

// TestTracePIDBaseSeparatesRuns shares one tracer between two runs at
// disjoint pid bases and checks their events land on disjoint tracks.
func TestTracePIDBaseSeparatesRuns(t *testing.T) {
	tr := obs.New(1 << 14)
	s := servingSystem(t)
	for i, base := range []int64{0, 100} {
		cfg := traceConfig(Cooperative)
		cfg.Tracer = tr
		cfg.TracePIDBase = base
		cfg.TraceLabel = []string{"runA", "runB"}[i]
		if _, err := Run(s, cfg); err != nil {
			t.Fatal(err)
		}
	}
	lowA, lowB := false, false
	for _, e := range tr.Snapshot() {
		switch {
		case e.PID <= 2:
			lowA = true
		case e.PID >= 100 && e.PID <= 102:
			lowB = true
		default:
			t.Fatalf("event on unexpected pid %d", e.PID)
		}
	}
	if !lowA || !lowB {
		t.Fatalf("expected events on both pid blocks (got A=%v B=%v)", lowA, lowB)
	}
}
