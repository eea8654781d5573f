package exp

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from current output")

// checkGolden compares rendered output byte-for-byte against the
// committed testdata/<name>.golden file.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s: output diverged from golden file (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenServing2Config keeps the serving2 golden cheap: one rate, both
// replica counts, all three modes.
func goldenServing2Config() Serving2Config {
	cfg := DefaultServing2Config()
	cfg.Queries = 20
	cfg.Rates = []float64{0.3}
	cfg.Replicas = []int{1, 2}
	return cfg
}

// one lifts a single-table experiment into a golden case's result.
func one(t Table, err error) ([]Table, error) { return []Table{t}, err }

// TestGoldenTables pins the rendered output of the headline experiments.
// Any change to latency models, sweep configs or table formatting shows
// up as a byte-level diff here.
func TestGoldenTables(t *testing.T) {
	l := testLab()
	ctx := context.Background()
	small := DatasetConfig{Queries: 10, Seed: 2024}
	cases := []struct {
		name string
		slow bool // skipped under -short (tens of seconds of compute)
		run  func() ([]Table, error)
	}{
		{"fig13", true, func() ([]Table, error) { return one(l.Fig13(ctx)) }},
		{"fig14_iphone", false, func() ([]Table, error) { return one(l.Fig14(ctx, soc.IPhone)) }},
		{"fig15_alpaca_q10", false, func() ([]Table, error) { return one(l.Fig15(ctx, workload.AlpacaSpec(), small)) }},
		{"fig16_alpaca_q10", false, func() ([]Table, error) { return one(l.Fig16(ctx, workload.AlpacaSpec(), small)) }},
		// The default scale has 4096 huge-page regions, exactly the
		// compaction ScanWindow, so it exercises full-window scans.
		{"tab1", false, func() ([]Table, error) { return one(l.Table1(ctx, DefaultTable1Config())) }},
		{"tab1_scale64", false, func() ([]Table, error) {
			cfg := DefaultTable1Config()
			cfg.Scale = 64
			return one(l.Table1(ctx, cfg))
		}},
		{"tab3", false, func() ([]Table, error) { return one(l.Table3(ctx, soc.LayoutSlowdownConfig{})) }},
		{"serving", false, func() ([]Table, error) { return one(l.Serving(ctx)) }},
		{"serving2_small", false, func() ([]Table, error) { return one(l.Serving2(ctx, goldenServing2Config())) }},
		{"ablations", false, func() ([]Table, error) { return l.Run(ctx, "ablations", DefaultConfigs()) }},
		{"resilience_small", false, func() ([]Table, error) { return one(l.Resilience(ctx, goldenResilienceConfig())) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("skipping slow golden case in -short mode")
			}
			tabs, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for i, tab := range tabs {
				if i > 0 {
					b.WriteString("\n")
				}
				b.WriteString(tab.String())
			}
			checkGolden(t, tc.name, b.String())
		})
	}
}

// goldenResilienceConfig keeps the resilience golden cheap: one mode,
// one hostile fault rate, all three policies.
func goldenResilienceConfig() ResilienceConfig {
	cfg := DefaultResilienceConfig()
	cfg.Queries = 40
	cfg.Modes = []serve.Mode{serve.Cooperative}
	cfg.LaneMTBFs = []float64{15}
	return cfg
}

// TestServing2Deterministic renders the serving2 table serially, again
// serially, and at 8-way parallelism: all three must be byte-identical
// (the sweep assigns results by point index, and every point owns its
// RNG state).
func TestServing2Deterministic(t *testing.T) {
	cfg := goldenServing2Config()
	render := func(par int) string {
		l := freshLab()
		l.SetParallelism(par)
		tab, err := l.Serving2(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		return tab.String()
	}
	serial := render(1)
	if again := render(1); again != serial {
		t.Errorf("repeated serial runs differ:\n%s\nvs\n%s", serial, again)
	}
	if par := render(8); par != serial {
		t.Errorf("par 8 differs from serial:\n%s\nvs\n%s", serial, par)
	}
}

// TestResilienceDeterministic is the acceptance criterion of the fault
// sweep: the same seed and scenario render byte-identically at -par 1
// and -par 8 (stochastic fault schedules included — every cell owns its
// fault RNGs).
func TestResilienceDeterministic(t *testing.T) {
	cfg := goldenResilienceConfig()
	render := func(par int) string {
		l := freshLab()
		l.SetParallelism(par)
		tab, err := l.Resilience(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		return tab.String()
	}
	serial := render(1)
	if again := render(1); again != serial {
		t.Errorf("repeated serial runs differ:\n%s\nvs\n%s", serial, again)
	}
	if par := render(8); par != serial {
		t.Errorf("par 8 differs from serial:\n%s\nvs\n%s", serial, par)
	}
}

// TestResilienceMonotone asserts the degradation story on every (mode,
// MTBF) block of the default grid: under one fault schedule, failover
// preserves at least as many in-SLO completions as SoC-only
// degradation, which preserves at least as many as no policy at all.
func TestResilienceMonotone(t *testing.T) {
	cfg := DefaultResilienceConfig()
	cfgs := cfg.simConfigs()
	mets, err := testLab().serveSweep(context.Background(), "resilience", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		mode   serve.Mode
		policy serve.Policy
		mtbf   float64
	}
	slo := map[cell]int{}
	for i, m := range mets {
		slo[cell{cfgs[i].Mode, cfgs[i].Policy, cfgs[i].Faults.LaneMTBF}] = m.SLOMet
	}
	for _, mode := range cfg.Modes {
		for _, mtbf := range cfg.LaneMTBFs {
			at := func(p serve.Policy) int { return slo[cell{mode, p, mtbf}] }
			none, fb, fo := at(serve.PolicyNone), at(serve.PolicySoCFallback), at(serve.PolicyFailover)
			if !(fo >= fb && fb >= none) {
				t.Errorf("%s mtbf %g: SLO completions not monotone: failover %d, fallback %d, none %d",
					mode, mtbf, fo, fb, none)
			}
		}
	}
}
