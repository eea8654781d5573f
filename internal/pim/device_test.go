package pim

import (
	"testing"

	"facil/internal/dram"
	"facil/internal/mapping"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	spec, err := dram.LPDDR5("pim test", 64, 6400, 2, 2<<30) // 4 channels
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(spec, DefaultAiM(spec.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGEMVBeatsExternalBandwidth(t *testing.T) {
	// The whole point of near-bank PIM: GEMV faster than streaming the
	// weights over the external bus.
	d := testDevice(t)
	m := mapping.MatrixConfig{Rows: 4096, Cols: 4096, DTypeBytes: 2}
	res, err := d.GEMV(m)
	if err != nil {
		t.Fatal(err)
	}
	ext := d.spec.PeakBandwidthGBs()
	if res.EffectiveInternalGBs < 2*ext {
		t.Errorf("internal BW %.1f GB/s not well above external %.1f", res.EffectiveInternalGBs, ext)
	}
	// And bounded by the configured MAC cadence.
	peakInternal := d.cfg.InternalBandwidthGBs(d.spec)
	if res.EffectiveInternalGBs > peakInternal {
		t.Errorf("internal BW %.1f exceeds theoretical %.1f", res.EffectiveInternalGBs, peakInternal)
	}
}

func TestGEMVScalesWithMatrixSize(t *testing.T) {
	d := testDevice(t)
	small, err := d.GEMV(mapping.MatrixConfig{Rows: 1024, Cols: 4096, DTypeBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	large, err := d.GEMV(mapping.MatrixConfig{Rows: 4096, Cols: 4096, DTypeBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := large.Seconds / small.Seconds
	if r < 3 || r > 5 {
		t.Errorf("4x weights scaled time by %.2f, want ~4", r)
	}
}

func TestGEMVCommandAccounting(t *testing.T) {
	d := testDevice(t)
	g := d.spec.Geometry
	m := mapping.MatrixConfig{Rows: 2048, Cols: 4096, DTypeBytes: 2} // 16 MiB padded
	res, err := d.GEMV(m)
	if err != nil {
		t.Fatal(err)
	}
	// Per bank: 16 MiB / 128 banks = 128 KiB of DRAM rows.
	wantRows := 16 << 20 / int64(g.TotalBanks()) / int64(g.RowBytes)
	if res.Activations != wantRows {
		t.Errorf("Activations = %d, want %d", res.Activations, wantRows)
	}
	if res.MACs != wantRows*int64(g.ColumnsPerRow()) {
		t.Errorf("MACs = %d, want %d", res.MACs, wantRows*int64(g.ColumnsPerRow()))
	}
	// Input: 8 KB vector = 4 segments x 64 bursts x 2 ranks.
	if res.InputBursts != 4*64*2 {
		t.Errorf("InputBursts = %d, want 512", res.InputBursts)
	}
	if res.PartialSums != 1 {
		t.Errorf("PartialSums = %d, want 1", res.PartialSums)
	}
	if res.OutputBursts <= 0 {
		t.Error("no output drain traffic")
	}
}

func TestGEMVPartitionedReportsPartialSums(t *testing.T) {
	d := testDevice(t)
	// 32768-column rows (64 KB) exceed the per-bank huge-page share
	// (2 MB / 128 banks = 16 KB): partitioned across 4 PUs.
	m := mapping.MatrixConfig{Rows: 128, Cols: 32768, DTypeBytes: 2}
	res, err := d.GEMV(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartialSums != 4 {
		t.Errorf("PartialSums = %d, want 4", res.PartialSums)
	}
}

func TestGEMVCached(t *testing.T) {
	d := testDevice(t)
	m := mapping.MatrixConfig{Rows: 1024, Cols: 1024, DTypeBytes: 2}
	a, err := d.GEMV(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.GEMV(m)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached result differs")
	}
}

func TestMACIntervalGovernsGEMV(t *testing.T) {
	spec, err := dram.LPDDR5("pim cadence", 64, 6400, 2, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	m := mapping.MatrixConfig{Rows: 2048, Cols: 4096, DTypeBytes: 2}
	run := func(interval int) float64 {
		cfg := DefaultAiM(spec.Geometry)
		cfg.MACIntervalCycles = interval
		d, err := NewDevice(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.GEMV(m)
		if err != nil {
			t.Fatal(err)
		}
		return r.Seconds
	}
	fast, slow := run(2), run(8)
	if r := slow / fast; r < 2.5 {
		t.Errorf("4x MAC interval sped ratio %.2f, want >= 2.5", r)
	}
}

func TestHBMPIMStyleRuns(t *testing.T) {
	spec, err := dram.LPDDR5("pim hbm-style", 64, 6400, 2, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(spec, DefaultHBMPIM(spec.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.GEMV(mapping.MatrixConfig{Rows: 4096, Cols: 128, DTypeBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Error("zero-latency GEMV")
	}
}

func TestConfigValidate(t *testing.T) {
	g := dram.JetsonOrinLPDDR5.Geometry
	cfg := DefaultAiM(g)
	cfg.MACIntervalCycles = 0
	if err := cfg.Validate(g); err == nil {
		t.Error("zero MAC interval accepted")
	}
	if err := DefaultAiM(g).Validate(g); err != nil {
		t.Error(err)
	}
}

func TestInternalBandwidthFormula(t *testing.T) {
	spec := dram.JetsonOrinLPDDR5 // 512 banks, 2.5 ns cycle
	cfg := DefaultAiM(spec.Geometry)
	got := cfg.InternalBandwidthGBs(spec)
	// 512 banks x 32 B / (6 x 2.5 ns) = 1092 GB/s.
	want := 512.0 * 32 / (6 * 2.5e-9) / 1e9
	if diff := got - want; diff > 1 || diff < -1 {
		t.Errorf("InternalBandwidthGBs = %.1f, want %.1f", got, want)
	}
}
