package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"facil/internal/cluster"
	"facil/internal/run"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19}, {n: 40, want: 75, ok: true}, {n: 99, want: 75, ok: true},
		{n: 100, want: 90, ok: true}, {n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true}, {n: 1000, want: 99, ok: true}, {n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the exclusive method spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(2), End: ms(5)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: ms(3), End: ms(4)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(4), 2: ms(2), 3: ms(2), 4: ms(4), 5: ms(1)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := selfByName(spans)["op"]; math.Abs(got-0.004) > 1e-12 {
		t.Errorf("selfByName[op] = %g s, want 0.004", got)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// A standard-library helper bills its facil caller.
		{[]string{"slices.pdqsortCmpFunc[...]", "slices.SortFunc[...]", "facil/internal/stats.QuantilesOf", "facil/internal/cluster.Run"}, "stats"},
		{[]string{"facil/internal/parallel.Sweep[...].func1", "runtime.goexit"}, "parallel"},
		{[]string{"facil/internal/mc.(*Frontend).Issue", "facil/internal/engine.(*System).Decode"}, "dram"},
		{[]string{"facil/internal/run.(*Engine).Execute"}, "exp"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "main.digest", "facil/internal/parallel.Sweep.func1"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "runtime"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestLayerMapCoversInternal keeps the attribution table in step with
// the packages on disk and with the reported layers.
func TestLayerMapCoversInternal(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := layerOf[e.Name()]; e.IsDir() && !ok {
			t.Errorf("internal/%s has no layer in layerOf", e.Name())
		}
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range layerOf {
		if !known[l] {
			t.Errorf("layerOf[%q] = %q, not a reported layer", pkg, l)
		}
	}
}

// TestCPUSharesLiveProfile decodes a real CPU profile of this test.
func TestCPUSharesLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) == 0 || math.Abs(sum-100) > 1e-9 || x == 0 {
		t.Fatalf("shares %v sum to %g, want 100", shares, sum)
	}
}

func TestCheckFleet(t *testing.T) {
	good := cluster.Metrics{
		Queries: 100, Routed: 90, Shed: 10,
		Completed: 80, Failed: 4, TimedOut: 3, Rejected: 3,
		Arrived: 95, Stolen: 5, Retracted: 5,
	}
	if err := checkFleet(good); err != nil {
		t.Fatalf("conserving metrics rejected: %v", err)
	}
	for name, broken := range map[string]func(*cluster.Metrics){
		"routed+shed":    func(m *cluster.Metrics) { m.Shed++ },
		"terminal":       func(m *cluster.Metrics) { m.Completed-- },
		"arrived":        func(m *cluster.Metrics) { m.Arrived++ },
		"retracted":      func(m *cluster.Metrics) { m.Retracted-- },
		"stolen twice":   func(m *cluster.Metrics) { m.Stolen++; m.Arrived++ },
		"shed for route": func(m *cluster.Metrics) { m.Routed--; m.Shed++ },
	} {
		m := good
		broken(&m)
		if checkFleet(m) == nil {
			t.Errorf("%s: violated identity accepted: %+v", name, m)
		}
	}
}

// TestDaemonMatchesBatch drives one tiny scenario through the daemon's
// HTTP API and checks the report digest against the in-process run.
func TestDaemonMatchesBatch(t *testing.T) {
	sc := run.DefaultScenario()
	sc.Experiments = []string{"fig2a"}
	f, err := newFacild(context.Background(), []run.Scenario{sc})
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	op := f.op(context.Background(), nil, 0)
	if op.Err != "" {
		t.Fatal(op.Err)
	}
	h := sha256.Sum256([]byte(f.want[0]))
	if op.Digest != hex.EncodeToString(h[:]) || op.Work != 1 {
		t.Fatalf("op = %+v, want the batch digest over one run", op)
	}
	if again := f.op(context.Background(), nil, 0); again.Digest != op.Digest {
		t.Fatalf("second round trip digest %s != first %s", again.Digest, op.Digest)
	}
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json names
// exactly the workloads and metrics facilbench emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, facilbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, facilbench %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, facilbench %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, facilbench %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
}
