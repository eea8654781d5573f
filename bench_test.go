package facil

// One benchmark per paper table and figure (DESIGN.md experiment index),
// plus micro-benchmarks of the core primitives. Each experiment benchmark
// prints its rendered table once, so `go test -bench=.` regenerates every
// row/series the paper reports.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/mapping"
	"facil/internal/pim"
	"facil/internal/soc"
	"facil/internal/vm"
	"facil/internal/workload"
)

// benchLab shares simulation caches across benchmarks.
var (
	benchLabOnce sync.Once
	benchLab     *exp.Lab
)

func lab() *exp.Lab {
	benchLabOnce.Do(func() { benchLab = exp.NewLab(engine.DefaultConfig()) })
	return benchLab
}

var printed sync.Map

// printOnce emits an experiment's tables a single time per process.
func printOnce(name string, tabs []exp.Table) {
	if _, loaded := printed.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Println()
	for _, t := range tabs {
		fmt.Println(t.String())
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	l := lab()
	for i := 0; i < b.N; i++ {
		tabs, err := l.Run(context.Background(), id, exp.DefaultConfigs())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(id, tabs)
	}
}

// --- Paper artifacts -------------------------------------------------

func BenchmarkFig2aDecodeBreakdown(b *testing.B) { runExperiment(b, "fig2a") }
func BenchmarkFig2bGEMVUtilization(b *testing.B) { runExperiment(b, "fig2b") }
func BenchmarkFig3PIMPotential(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFig6RelayoutTTFT(b *testing.B)     { runExperiment(b, "fig6") }
func BenchmarkTable2PlatformSpecs(b *testing.B)  { runExperiment(b, "tab2") }
func BenchmarkTable3GEMMSlowdown(b *testing.B)   { runExperiment(b, "tab3") }
func BenchmarkFig13TTFT(b *testing.B)            { runExperiment(b, "fig13") }
func BenchmarkFig14TTLT(b *testing.B)            { runExperiment(b, "fig14") }
func BenchmarkFig15DatasetTTFT(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16DatasetTTLT(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkMaxMapIDFormula(b *testing.B)      { runExperiment(b, "maxmap") }

// Extensions beyond the paper's figures.
func BenchmarkExtCoscheduling(b *testing.B) { runExperiment(b, "cosched") }
func BenchmarkExtQuantization(b *testing.B) { runExperiment(b, "quant") }
func BenchmarkExtPIMStyle(b *testing.B)     { runExperiment(b, "pimstyle") }
func BenchmarkExtEnergy(b *testing.B)       { runExperiment(b, "energy") }
func BenchmarkExtServing(b *testing.B)      { runExperiment(b, "serving") }

func BenchmarkTable1HugePageLoad(b *testing.B) {
	cfg := exp.DefaultTable1Config()
	cfg.Scale = 16 // 1 GB model in a 4 GB memory per cell; times rescaled
	for i := 0; i < b.N; i++ {
		tab, err := lab().Table1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("tab1", []exp.Table{tab})
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---------------

// BenchmarkAblations runs the whole ablations experiment: the eight
// studies as sweep points of one lab.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, err := lab().Ablations(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablations", tabs)
	}
}

// BenchmarkParallelSweep compares serial (-par 1) against the full worker
// pool (-par 0 = GOMAXPROCS) on the two heaviest sweeps. Each iteration
// uses a fresh lab so both settings pay the same cold simulation caches;
// on a multi-core runner the parallel variants should show the speedup
// the DESIGN.md concurrency model promises.
func BenchmarkParallelSweep(b *testing.B) {
	for _, id := range []string{"fig14", "fig15"} {
		for _, par := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/par=%d", id, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					l := exp.NewLab(engine.DefaultConfig())
					l.SetParallelism(par)
					b.StartTimer()
					tabs, err := l.Run(context.Background(), id, exp.DefaultConfigs())
					if err != nil {
						b.Fatal(err)
					}
					if len(tabs) == 0 {
						b.Fatal("no tables")
					}
				}
			})
		}
	}
}

// --- Core primitive micro-benchmarks ----------------------------------

func BenchmarkMappingTranslate(b *testing.B) {
	g := soc.Jetson.Spec.Geometry
	mcfg := mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}
	m, err := mapping.BuildPIM(mcfg, mapping.AiMChunk(g), mapping.MaxMapID(mcfg))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		a, _ := m.Translate(uint64(i) * 32)
		sink += a.Bank
	}
	_ = sink
}

// BenchmarkFrontendTranslate measures the memory-controller frontend's
// mux (paper Fig. 12): the MapID picks a mapping from the table, which
// splits the physical address into DRAM coordinates.
func BenchmarkFrontendTranslate(b *testing.B) {
	spec := soc.IPhone.Spec
	mcfg := mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
	tab, err := mapping.NewTable(mcfg, mapping.AiMChunk(spec.Geometry))
	if err != nil {
		b.Fatal(err)
	}
	min, _ := tab.Range()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		id := mapping.ConventionalMapID
		if i%2 == 0 {
			id = min
		}
		a, _ := tab.Lookup(id).Translate(uint64(i) * 32 % uint64(spec.Geometry.CapacityBytes()))
		sink += a.Row
	}
	_ = sink
}

func BenchmarkDRAMSequentialStream(b *testing.B) {
	spec, err := dram.LPDDR5("bench", 16, 6400, 2, 256<<20)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]dram.Request, 0, 4096)
	for row := 0; row < 4; row++ {
		for bank := 0; bank < 16; bank++ {
			for col := 0; col < 64; col++ {
				reqs = append(reqs, dram.Request{Addr: dram.Addr{Bank: bank, Row: row, Column: col}})
			}
		}
	}
	b.SetBytes(int64(len(reqs) * 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// SliceSource enqueues by value, so iterations share the slice.
		if _, err := dram.MeasureStream(spec, dram.SliceSource(reqs), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIMGEMV(b *testing.B) {
	spec := soc.IPhone.Spec
	matrix := mapping.MatrixConfig{Rows: 4096, Cols: 4096, DTypeBytes: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pim.NewDevice(spec, pim.DefaultAiM(spec.Geometry))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.GEMV(matrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuddyAllocFree(b *testing.B) {
	buddy, err := vm.NewBuddy(1<<20, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := buddy.Alloc(vm.HugeOrder)
		if err != nil {
			b.Fatal(err)
		}
		if err := buddy.Free(s, vm.HugeOrder); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLBTranslate(b *testing.B) {
	pt := vm.NewPageTable()
	for i := uint64(0); i < 64; i++ {
		if err := pt.MapHuge(i<<21, i<<21, 7, vm.PTEWrite); err != nil {
			b.Fatal(err)
		}
	}
	tlb, err := vm.NewTLB(16, 4, pt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tlb.Translate(uint64(i%64) << 21); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTTFT(b *testing.B) {
	s, err := NewSystem(soc.Jetson.Name, "")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the caches once so the benchmark measures the query path.
	if _, err := s.TTFT(FACIL, 64); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TTFT(FACIL, 8+i%121); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	spec := workload.AlpacaSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(spec, 100, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
