package run

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"facil/internal/engine"
	"facil/internal/exp"
)

func TestDecodeDefaults(t *testing.T) {
	sc, err := Decode(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.QueueCap != -1 || sc.SLO != -1 {
		t.Errorf("empty scenario = %+v, want queuecap/slo at their -1 sentinels", sc)
	}
	sc, err = Decode(strings.NewReader(`{"queuecap": 0, "slo": 0, "experiments": ["fig3"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.QueueCap != 0 || sc.SLO != 0 {
		t.Errorf("explicit zeros decoded as %+v, want unbounded queue / no SLO", sc)
	}
	if !reflect.DeepEqual(sc.Experiments, []string{"fig3"}) {
		t.Errorf("experiments = %v", sc.Experiments)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"quries": 5}`)); err == nil {
		t.Fatal("typo'd field decoded without error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"serving2"}
	sc.Rates = "0.5,1"
	sc.QueueCap = 0
	sc.SLO = 12.5
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Errorf("round trip: got %+v, want %+v", got, sc)
	}
}

func TestIDsDefaultsToAll(t *testing.T) {
	if got := DefaultScenario().IDs(); !reflect.DeepEqual(got, exp.AllIDs) {
		t.Errorf("empty scenario IDs = %v, want exp.AllIDs", got)
	}
	sc := Scenario{Experiments: []string{"tab2", "fig3"}}
	if got := sc.IDs(); !reflect.DeepEqual(got, []string{"tab2", "fig3"}) {
		t.Errorf("IDs = %v", got)
	}
}

// TestIDsExpandAll pins "all" (facilsim -id all, or a facild POST) to
// every experiment in DESIGN.md order, in place in the list.
func TestIDsExpandAll(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{allExperiments}
	if got := sc.IDs(); !reflect.DeepEqual(got, exp.AllIDs) {
		t.Errorf("IDs of [all] = %v, want exp.AllIDs", got)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("[all] rejected: %v", err)
	}
	sc.Experiments = []string{"tab2", allExperiments}
	if got := sc.IDs(); !reflect.DeepEqual(got, append([]string{"tab2"}, exp.AllIDs...)) {
		t.Errorf("IDs of [tab2 all] = %v", got)
	}
	if got := sc.Args(); !reflect.DeepEqual(got, []string{"-id", "tab2,all"}) {
		t.Errorf("Args of [tab2 all] = %v", got)
	}
}

func TestArgsCanonicalForm(t *testing.T) {
	if got := DefaultScenario().Args(); len(got) != 0 {
		t.Errorf("default scenario Args = %v, want none", got)
	}
	sc := DefaultScenario()
	sc.Experiments = []string{"serving2", "resilience"}
	sc.Queries = 40
	sc.QueueCap = 0
	sc.SLO = 20
	sc.Policy = "failover"
	want := []string{"-id", "serving2,resilience", "-queries", "40", "-queuecap", "0", "-slo", "20", "-policy", "failover"}
	if got := sc.Args(); !reflect.DeepEqual(got, want) {
		t.Errorf("Args = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"fig3", "serving2"}
	sc.Rates = "0.5,1"
	sc.Modes = "cooperative"
	if err := sc.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	bad := DefaultScenario()
	bad.Experiments = []string{"fig99"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown experiment accepted")
	}
	bad = DefaultScenario()
	bad.Rates = "0.5,potato"
	if err := bad.Validate(); err == nil {
		t.Error("unparsable rate accepted")
	}
	bad = DefaultScenario()
	bad.Policy = "shrug"
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	bad = DefaultScenario()
	bad.StealScore = "psychic"
	if err := bad.Validate(); err == nil {
		t.Error("unknown stealscore accepted")
	}
	bad = DefaultScenario()
	bad.TuneBudget = -3
	if err := bad.Validate(); err == nil {
		t.Error("negative tunebudget accepted")
	}
	ok := DefaultScenario()
	ok.StealScore = "depth"
	ok.TuneBudget = 128
	ok.TuneSeed = 42
	if err := ok.Validate(); err != nil {
		t.Errorf("valid stealscore/tune fields rejected: %v", err)
	}
	// NaN fails both the < 0 and the >= 0 test, so a non-finite rate,
	// sync or slo must be refused outright (JSON cannot carry them; the
	// CLI flags can).
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Scenario){
			func(sc *Scenario) { sc.Rate = v },
			func(sc *Scenario) { sc.Sync = v },
			func(sc *Scenario) { sc.SLO = v },
		} {
			bad := DefaultScenario()
			set(&bad)
			if err := bad.Validate(); err == nil {
				t.Errorf("non-finite override accepted: rate %g sync %g slo %g", bad.Rate, bad.Sync, bad.SLO)
			}
		}
	}

	// The cluster experiment's single-value policy/faults rule binds
	// only scenarios that run cluster (explicitly or via the empty list).
	for _, tc := range []struct {
		json  string
		valid bool
	}{
		{`{"experiments":["resilience"],"policy":"none,failover"}`, true},
		{`{"experiments":["resilience"],"faults":"60,15"}`, true},
		{`{"experiments":["cluster"],"policy":"failover"}`, true},
		{`{"experiments":["resilience","cluster"],"policy":"none,failover"}`, false},
		{`{"experiments":["cluster"],"faults":"60,15"}`, false},
		{`{"policy":"none,failover"}`, false},
		// Bounds on untrusted sizes: the largest documented commands
		// validate; oversized, negative or overflowing fields do not.
		{`{"experiments":["cluster"],"queries":100000,"devices":104}`, true},
		{`{"experiments":["maptune"],"tunebudget":1024}`, true},
		{`{"experiments":["cluster"],"fleet":"jetson:50000,iphone:50000"}`, true},
		{`{"queries":10000001}`, false},
		{`{"queries":-1}`, false},
		{`{"scale":-8}`, false},
		{`{"devices":-3}`, false},
		{`{"devices":100001}`, false},
		{`{"rate":-1}`, false},
		{`{"sync":-0.5}`, false},
		{`{"tunebudget":1048577}`, false},
		{`{"queuecap":-2}`, false},
		{`{"slo":-1.5}`, false},
		// List entries parse with strconv, which accepts NaN and Inf.
		{`{"experiments":["serving2"],"rates":"NaN"}`, false},
		{`{"experiments":["serving2"],"rates":"0.5,+Inf"}`, false},
		{`{"experiments":["resilience"],"faults":"Inf"}`, false},
		{`{"experiments":["resilience"],"faults":"60,nan"}`, false},
		{`{"steal":-7}`, false},
		{`{"stealthreshold":-2}`, false},
		{`{"experiments":["cluster"],"fleet":"jetson:50000,iphone:50001"}`, false},
		{`{"experiments":["cluster"],"fleet":"jetson:100001","devices":12}`, false},
		// Per-class counts near MaxInt once overflowed the fleet sum and
		// hung Validate in cluster.ScaleFleet.
		{hangBody, false},
		{`{"experiments":["cluster"],"fleet":"jetson:9223372036854775807,iphone:9223372036854775807"}`, false},
	} {
		sc, err := Decode(strings.NewReader(tc.json))
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); (err == nil) != tc.valid {
			t.Errorf("Validate(%s) = %v, want valid=%v", tc.json, err, tc.valid)
		}
	}
}

// hangBody is a scenario whose fleet class counts overflow an int sum.
const hangBody = `{"experiments":["cluster"],"fleet":"jetson:9223372036854775807,iphone:9223372036854775807","devices":1000000000000}`

// cheapEngine builds an engine suitable for fast registry-driven tests.
func cheapEngine(t *testing.T) *Engine {
	t.Helper()
	return New(Options{Config: engine.DefaultConfig(), Tool: "runtest", Parallelism: 2})
}

func TestExecuteOrderAndFailures(t *testing.T) {
	eng := cheapEngine(t)
	sc := DefaultScenario()
	sc.Experiments = []string{"tab2", "fig99", "fig3"}
	var streamed []string
	rep, err := eng.Execute(context.Background(), sc, ExecOpts{
		Sink: func(res exp.Result) error {
			streamed = append(streamed, res.ID)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, sc.Experiments) {
		t.Errorf("sink order = %v, want request order %v", streamed, sc.Experiments)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for i, id := range sc.Experiments {
		if rep.Results[i].ID != id {
			t.Errorf("results[%d].ID = %q, want %q", i, rep.Results[i].ID, id)
		}
	}
	if rep.Results[1].Error == "" || rep.Results[1].Tables != nil {
		t.Errorf("fig99 result = %+v, want error and no tables", rep.Results[1])
	}
	if rep.Results[0].Error != "" || rep.Results[2].Error != "" {
		t.Error("valid experiments failed alongside the bad one")
	}
	if !reflect.DeepEqual(rep.Manifest.Failed, []string{"fig99"}) {
		t.Errorf("manifest failed = %v", rep.Manifest.Failed)
	}
	if !reflect.DeepEqual(rep.Manifest.Experiments, sc.Experiments) {
		t.Errorf("manifest experiments = %v", rep.Manifest.Experiments)
	}
}

// TestExecuteRejectsMalformedOverride pins the fail-fast contract: a
// malformed override fails Execute before any experiment runs, even
// one that does not read it.
func TestExecuteRejectsMalformedOverride(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"tab2"}
	sc.Rates = "potato"
	calls := 0
	_, err := cheapEngine(t).Execute(context.Background(), sc, ExecOpts{
		Sink: func(exp.Result) error {
			calls++
			return nil
		},
	})
	if err == nil {
		t.Error("Execute accepted rates \"potato\"")
	}
	if calls != 0 {
		t.Errorf("sink called %d times, want 0", calls)
	}
}

func TestExecuteWritesOutDir(t *testing.T) {
	eng := cheapEngine(t)
	sc := DefaultScenario()
	sc.Experiments = []string{"tab2"}
	dir := filepath.Join(t.TempDir(), "out")
	if _, err := eng.Execute(context.Background(), sc, ExecOpts{OutDir: dir, Format: "json"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tab2.json", "manifest.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
}

// TestCanonicalDeterminism pins the property the daemon-vs-batch test
// relies on: two executions of one scenario have byte-identical
// canonical reports even though their manifests carry different wall
// times.
func TestCanonicalDeterminism(t *testing.T) {
	sc := DefaultScenario()
	sc.Experiments = []string{"fig3", "tab2"}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		rep, err := cheapEngine(t).Execute(context.Background(), sc, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Manifest.Start.IsZero() {
			t.Fatal("manifest start not stamped")
		}
		can := Canonical(rep)
		if can.Manifest.Start != (exp.Report{}).Manifest.Start {
			t.Error("Canonical kept the start timestamp")
		}
		for _, res := range can.Results {
			if res.ElapsedSeconds != 0 {
				t.Errorf("Canonical kept %s elapsed time", res.ID)
			}
		}
		if err := can.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("canonical reports differ between two runs of one scenario")
	}
}
