package exp

import (
	"context"
	"strings"
	"sync"
	"testing"

	"facil/internal/engine"
	"facil/internal/soc"
	"facil/internal/workload"
)

// testLab returns a shared Lab for read-only use: experiments are pure
// functions of their config, and the Lab's System caches are immutable
// once warm, so tests reuse one instance instead of each paying cold
// latency computation. Tests that reconfigure the lab (SetParallelism,
// SetProgress) must use freshLab instead.
var labOnce = struct {
	sync.Once
	l *Lab
}{}

func testLab() *Lab {
	labOnce.Do(func() { labOnce.l = NewLab(engine.DefaultConfig()) })
	return labOnce.l
}

// freshLab builds a private Lab for tests that mutate lab configuration.
func freshLab() *Lab { return NewLab(engine.DefaultConfig()) }

func TestFig2aLinearDominates(t *testing.T) {
	l := testLab()
	tab, err := l.Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 7 {
		t.Errorf("Fig2a rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Notes[0], "paper reports >90%") {
		t.Errorf("note missing: %v", tab.Notes)
	}
}

func TestFig3ReproducesShape(t *testing.T) {
	l := testLab()
	r, err := l.Fig3Compute()
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedupVsIdealNPU < 2 || r.SpeedupVsIdealNPU > 5 {
		t.Errorf("PIM vs ideal NPU = %.2f, paper reports 3.32", r.SpeedupVsIdealNPU)
	}
	if r.SpeedupVsGPU <= r.SpeedupVsIdealNPU {
		t.Errorf("GPU should be slower than ideal NPU: vsGPU %.2f vsNPU %.2f",
			r.SpeedupVsGPU, r.SpeedupVsIdealNPU)
	}
}

func TestFig6ReproducesShape(t *testing.T) {
	l := testLab()
	rows, err := l.Fig6Compute()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: ~3x TTFT increase (from ~100 ms to ~300 ms).
		if r.Increase < 1.5 || r.Increase > 5 {
			t.Errorf("P%d: increase = %.2fx outside plausible band", r.Prefill, r.Increase)
		}
	}
	// Increase shrinks as prefill grows (amortization).
	if rows[0].Increase <= rows[len(rows)-1].Increase {
		t.Errorf("re-layout increase not amortizing: %v", rows)
	}
	// Absolute TTFTs in the paper's ballpark (tens to hundreds of ms).
	last := rows[len(rows)-1]
	if last.BaselineSeconds < 0.02 || last.BaselineSeconds > 0.5 {
		t.Errorf("P64 baseline TTFT = %.3fs, paper ~0.1s", last.BaselineSeconds)
	}
}

func TestFig13ReproducesPaperOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full fig13 sweep in -short mode")
	}
	l := testLab()
	rows, err := l.Fig13Compute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	geo := map[string]float64{}
	for _, r := range rows {
		geo[r.Platform] = r.Geomean
		// Every platform speeds up, monotonically diminishing.
		for i := 1; i < len(r.Speedups); i++ {
			if r.Speedups[i] > r.Speedups[i-1]+1e-9 {
				t.Errorf("%s: speedup grew with prefill: %v", r.Platform, r.Speedups)
				break
			}
		}
		if r.Geomean < 1.2 {
			t.Errorf("%s: geomean %.2f too small", r.Platform, r.Geomean)
		}
	}
	// Paper ordering: IdeaPad shows the least speedup of the four.
	for name, g := range geo {
		if name == soc.IdeaPad.Name {
			continue
		}
		if geo[soc.IdeaPad.Name] >= g {
			t.Errorf("IdeaPad geomean %.2f not the smallest (%s: %.2f)",
				geo[soc.IdeaPad.Name], name, g)
		}
	}
}

func TestFig14Amortizes(t *testing.T) {
	l := testLab()
	cells, err := l.Fig14Compute(context.Background(), soc.Jetson)
	if err != nil {
		t.Fatal(err)
	}
	byPD := map[[2]int]float64{}
	for _, c := range cells {
		byPD[[2]int{c.Prefill, c.Decode}] = c.Speedup
	}
	if byPD[[2]int{64, 8}] <= byPD[[2]int{64, 128}] {
		t.Errorf("TTLT speedup not amortizing with decode: %v vs %v",
			byPD[[2]int{64, 8}], byPD[[2]int{64, 128}])
	}
	for pd, sp := range byPD {
		if sp < 1.0 {
			t.Errorf("P%d/D%d: FACIL slower than baseline (%.3f)", pd[0], pd[1], sp)
		}
	}
}

func TestDatasetEvaluationShape(t *testing.T) {
	l := testLab()
	cfg := DatasetConfig{Queries: 30, Seed: 7}
	res, err := l.EvalDataset(context.Background(), soc.Jetson, workload.AlpacaSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid static is its own baseline.
	if v := res.TTFTSpeedup[engine.HybridStatic]; v < 0.999 || v > 1.001 {
		t.Errorf("baseline self-speedup = %.3f", v)
	}
	// FACIL beats both hybrids on TTFT.
	if res.TTFTSpeedup[engine.FACIL] <= res.TTFTSpeedup[engine.HybridStatic] {
		t.Error("FACIL TTFT not above baseline")
	}
	if res.TTFTSpeedup[engine.FACIL] < res.TTFTSpeedup[engine.HybridDynamic]-1e-9 {
		t.Error("FACIL TTFT below hybrid dynamic")
	}
	// SoC-only loses badly on TTLT; FACIL wins it back.
	if res.TTLTSpeedup[engine.SoCOnly] >= 1 {
		t.Errorf("SoC-only TTLT speedup = %.2f, should be < 1", res.TTLTSpeedup[engine.SoCOnly])
	}
	if res.FACILOverSoCOnlyTTLT < 2 {
		t.Errorf("FACIL over SoC-only TTLT = %.2f, paper reports 3.55", res.FACILOverSoCOnlyTTLT)
	}
	// FACIL TTLT gain over the hybrid baseline is modest (paper: 1.20x).
	if v := res.TTLTSpeedup[engine.FACIL]; v < 1.0 || v > 2.0 {
		t.Errorf("FACIL TTLT speedup = %.2f, paper reports ~1.2", v)
	}
}

func TestTable1ShapeAtSmallScale(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Scale = 64 // 253 MB model in 1 GB memory: fast
	cells, err := testLab().Table1Compute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Table1FMFIBands)*len(Table1FreeRels) {
		t.Fatalf("cell count = %d", len(cells))
	}
	// Normalized >= 1 everywhere; worst cell at high FMFI + pressure.
	var low, worst float64
	for _, c := range cells {
		if c.Result.Normalized < 1 {
			t.Errorf("cell %v normalized %.2f < 1", c, c.Result.Normalized)
		}
		if c.FMFILow == 0.0 && c.FreeRel == 2.5 {
			low = c.Result.Normalized
		}
		if c.FMFILow == 0.7 && c.FreeRel == 1.1 {
			worst = c.Result.Normalized
		}
	}
	if worst <= low {
		t.Errorf("worst cell %.2f not above best cell %.2f", worst, low)
	}
}

func TestMaxMapIDTable(t *testing.T) {
	tab, err := MaxMapID()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Worst-case row must show max MapID 13 with 4 PTE bits.
	if tab.Rows[0][2] != "13" || tab.Rows[0][5] != "4" {
		t.Errorf("worst-case row = %v", tab.Rows[0])
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := tab.String()
	for _, want := range []string{"demo", "333", "note: hello", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestRegistry pins the experiment dispatcher: unknown identifiers are
// rejected and the cheap entries run end to end. The listing invariants
// live in registry_test.go.
func TestRegistry(t *testing.T) {
	if _, err := testLab().Run(context.Background(), "nope", DefaultConfigs()); err == nil || Known("nope") {
		t.Error("unknown experiment accepted")
	}
	// Spot-run the cheap ones end to end.
	l := testLab()
	for _, id := range []string{"tab2", "maxmap", "fig2b"} {
		tabs, err := l.Run(context.Background(), id, DefaultConfigs())
		if err != nil {
			t.Errorf("Run(%q): %v", id, err)
			continue
		}
		if len(tabs) == 0 || tabs[0].String() == "" {
			t.Errorf("Run(%q) produced nothing", id)
		}
	}
}

func TestPlatformModelAssignment(t *testing.T) {
	if PlatformModel(soc.Jetson).Name != "Llama3-8B" ||
		PlatformModel(soc.Macbook).Name != "Llama3-8B" ||
		PlatformModel(soc.IdeaPad).Name != "OPT-6.7B" ||
		PlatformModel(soc.IPhone).Name != "Phi-1.5" {
		t.Error("platform-model assignment does not match Table II")
	}
}
