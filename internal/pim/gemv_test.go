package pim

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"facil/internal/dram"
	"facil/internal/llm"
	"facil/internal/mapping"
	"facil/internal/soc"
)

// referenceGEMV is Device.schedule with the per-burst command loop that
// dram.Channel.AllBankPasses replaces: the oracle for the fast path.
func referenceGEMV(d *Device, ch *dram.Channel, matrix mapping.MatrixConfig) (GEMVResult, error) {
	sel, err := mapping.SelectMapping(matrix, d.mem, d.cfg.Chunk)
	if err != nil {
		return GEMVResult{}, err
	}
	g := d.spec.Geometry
	res := GEMVResult{PartialSums: sel.PartitionsPerRow}

	rowBytes := int64(matrix.PaddedRowBytes())
	totalBytes := int64(matrix.Rows) * rowBytes
	perBank := (totalBytes + int64(g.TotalBanks()) - 1) / int64(g.TotalBanks())
	dramRowsPerBank := int((perBank + int64(g.RowBytes) - 1) / int64(g.RowBytes))
	if dramRowsPerBank == 0 {
		dramRowsPerBank = 1
	}
	inBytes := int64(matrix.Cols) * int64(matrix.DTypeBytes)
	segments := int((inBytes + int64(g.RowBytes) - 1) / int64(g.RowBytes))
	if segments == 0 {
		segments = 1
	}
	passesPerSeg := (dramRowsPerBank + segments - 1) / segments

	// A segment fills each rank's global input buffer, which holds one
	// DRAM row (the paper's assumption), so it is one row of bursts.
	burstsPerRow := g.ColumnsPerRow()

	ranks := g.RanksPerChannel
	row := 0
	passesLeft := dramRowsPerBank
	for seg := 0; seg < segments && passesLeft > 0; seg++ {
		for rk := 0; rk < ranks; rk++ {
			if _, err := ch.WriteGlobalBuffer(rk, burstsPerRow); err != nil {
				return GEMVResult{}, err
			}
			res.InputBursts += int64(burstsPerRow)
		}
		passes := passesPerSeg
		if passes > passesLeft {
			passes = passesLeft
		}
		for p := 0; p < passes; p++ {
			for rk := 0; rk < ranks; rk++ {
				if _, err := ch.AllBankACT(rk, row%g.Rows); err != nil {
					return GEMVResult{}, err
				}
			}
			res.Activations++
			for b := 0; b < burstsPerRow; b++ {
				for rk := 0; rk < ranks; rk++ {
					if _, err := ch.AllBankMAC(rk, b, d.cfg.MACIntervalCycles); err != nil {
						return GEMVResult{}, err
					}
				}
				res.MACs++
			}
			for rk := 0; rk < ranks; rk++ {
				if _, err := ch.AllBankPRE(rk); err != nil {
					return GEMVResult{}, err
				}
			}
			row++
		}
		passesLeft -= passes
	}
	outElems := int64(matrix.Rows) * int64(sel.PartitionsPerRow)
	outBytes := outElems * int64(matrix.DTypeBytes)
	outBurstsPerChannel := int((outBytes/int64(g.Channels) + int64(g.TransferBytes) - 1) / int64(g.TransferBytes))
	perRank := (outBurstsPerChannel + ranks - 1) / ranks
	for rk := 0; rk < ranks; rk++ {
		if _, err := ch.ReadMACResults(rk, perRank); err != nil {
			return GEMVResult{}, err
		}
		res.OutputBursts += int64(perRank)
	}

	res.Cycles = ch.Now()
	res.Seconds = d.spec.Timing.Seconds(res.Cycles)
	if res.Seconds > 0 {
		res.EffectiveInternalGBs = float64(totalBytes) / res.Seconds / 1e9
	}
	return res, nil
}

// gemvChannel builds the channel a GEMV runs on with the given modes.
func gemvChannel(spec *dram.Spec, refresh, dual bool) *dram.Channel {
	ch := dram.NewChannel(spec)
	ch.SetRefreshEnabled(refresh)
	ch.SetDualRowBuffer(dual)
	return ch
}

// checkGEMV fails unless the fast schedule and referenceGEMV agree bit for
// bit (result, clock and channel counters) on twin channels.
func checkGEMV(t testing.TB, d *Device, m mapping.MatrixConfig, refresh, dual bool) {
	t.Helper()
	fastCh, refCh := gemvChannel(&d.spec, refresh, dual), gemvChannel(&d.spec, refresh, dual)
	got, gerr := d.schedule(fastCh, m)
	want, werr := referenceGEMV(d, refCh, m)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s %+v: error %v, reference error %v", d.spec.Name, m, gerr, werr)
	}
	if got != want {
		t.Fatalf("%s %+v (refresh=%v dual=%v):\n got %+v\nwant %+v", d.spec.Name, m, refresh, dual, got, want)
	}
	if fastCh.Now() != refCh.Now() || fastCh.Stats() != refCh.Stats() {
		t.Fatalf("%s %+v: channel at %d %+v, reference at %d %+v",
			d.spec.Name, m, fastCh.Now(), fastCh.Stats(), refCh.Now(), refCh.Stats())
	}
}

// platformModel is the experiments' model for each platform (exp's
// PlatformModel, which this package cannot import).
func platformModel(p soc.Platform) llm.Model {
	switch p.Name {
	case soc.IdeaPad.Name:
		return llm.OPT_6_7B()
	case soc.IPhone.Name:
		return llm.Phi1_5()
	default:
		return llm.Llama3_8B()
	}
}

// maxPaperContext bounds the KV-cache contexts the experiments reach: the
// longest code-autocompletion prompt (2048) plus its longest decode (128).
const maxPaperContext = 2048 + 128

// TestGEMVMatchesReference pins the fast GEMV schedule to the per-burst
// loop on every shape the experiments simulate: each platform's model's
// weight matrices under every AiM cadence the experiments sweep and under
// HBM-PIM chunks, the 4096x4096 pimstyle matrix, and the KV-cache matrix
// at every context 1..maxPaperContext.
func TestGEMVMatchesReference(t *testing.T) {
	maxCtx := maxPaperContext
	if testing.Short() {
		maxCtx = 256
	}
	for _, p := range soc.All() {
		m := platformModel(p)
		var cfgs []Config
		for _, interval := range []int{2, 4, 6, 8, 12} {
			cfg := DefaultAiM(p.Spec.Geometry)
			cfg.MACIntervalCycles = interval
			cfgs = append(cfgs, cfg)
		}
		cfgs = append(cfgs, DefaultHBMPIM(p.Spec.Geometry))
		for _, cfg := range cfgs {
			d, err := NewDevice(p.Spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range m.WeightMatrices() {
				checkGEMV(t, d, w.Matrix(m.DTypeBytes), true, false)
			}
			checkGEMV(t, d, mapping.MatrixConfig{Rows: 4096, Cols: 4096, DTypeBytes: 2}, true, false)
		}
		d, err := NewDevice(p.Spec, DefaultAiM(p.Spec.Geometry))
		if err != nil {
			t.Fatal(err)
		}
		for ctx := 1; ctx <= maxCtx; ctx++ {
			checkGEMV(t, d, m.AttentionKVMatrix(ctx), true, false)
		}
	}
}

// TestGEMVIgnoresRefresh pins that all-bank commands never consult
// refresh (it runs only in the request scheduler's step), so a GEMV takes
// the same cycles with refresh on or off, however long it runs.
func TestGEMVIgnoresRefresh(t *testing.T) {
	p := soc.Jetson
	d, err := NewDevice(p.Spec, DefaultAiM(p.Spec.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	m := llm.Llama3_8B()
	for _, w := range m.WeightMatrices() {
		mat := w.Matrix(m.DTypeBytes)
		on, err := d.schedule(gemvChannel(&d.spec, true, false), mat)
		if err != nil {
			t.Fatal(err)
		}
		off, err := d.schedule(gemvChannel(&d.spec, false, false), mat)
		if err != nil {
			t.Fatal(err)
		}
		if on != off {
			t.Errorf("%+v: refresh on %+v, off %+v", mat, on, off)
		}
		if on.Cycles <= int64(d.spec.Timing.TREFI) {
			t.Errorf("%+v: %d cycles never cross a refresh interval (%d)", mat, on.Cycles, d.spec.Timing.TREFI)
		}
	}
}

// TestGEMVFastPathSpeedup is the ratio gate of the lock-step fast path on
// fig15's hot shape, the KV-cache GEMVs prefill runs over a growing
// context: the fast schedule must beat the per-burst loop by >= 10x, as
// the median of paired ratios over interleaved rounds (each round times
// both sides back to back, alternating which goes first), so a burst of
// load from other processes cannot decide the ratio.
func TestGEMVFastPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	p := soc.Jetson
	d, err := NewDevice(p.Spec, DefaultAiM(p.Spec.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	model := llm.Llama3_8B()
	var shapes []mapping.MatrixConfig
	for ctx := 1; ctx <= 2048; ctx += 37 {
		shapes = append(shapes, model.AttentionKVMatrix(ctx))
	}
	// Each try runs every shape 20 times on channels built (and garbage
	// collected after) beforehand.
	chans := make([]*dram.Channel, 20*len(shapes))
	try := func(run func(*dram.Channel, mapping.MatrixConfig) (GEMVResult, error)) time.Duration {
		for i := range chans {
			chans[i] = dram.NewChannel(&d.spec)
		}
		runtime.GC()
		start := time.Now()
		for i, ch := range chans {
			if _, err := run(ch, shapes[i%len(shapes)]); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	reference := func(ch *dram.Channel, m mapping.MatrixConfig) (GEMVResult, error) {
		return referenceGEMV(d, ch, m)
	}
	const rounds = 7
	ratios := make([]float64, rounds)
	for r := range ratios {
		var fast, ref time.Duration
		if r%2 == 0 {
			fast, ref = try(d.schedule), try(reference)
		} else {
			ref, fast = try(reference), try(d.schedule)
		}
		ratios[r] = float64(ref) / float64(fast)
	}
	sort.Float64s(ratios)
	t.Logf("paired per-burst/fast ratios %.1f", ratios)
	if med := ratios[rounds/2]; med < 10 {
		t.Errorf("fast GEMV only %.1fx faster than the per-burst loop (median of %d paired rounds), want >= 10x", med, rounds)
	}
}

// FuzzGEMVDifferential pins the fast schedule to referenceGEMV over
// matrix shapes, dtypes, rank counts, MAC cadences, the timing constants
// that pace all-bank commands, refresh and dual row buffers.
func FuzzGEMVDifferential(f *testing.F) {
	f.Add(uint16(4096), uint16(4096), uint8(1), uint8(1), uint8(6), uint8(1), uint8(2), uint8(8), false, false)
	f.Add(uint16(37), uint16(1024), uint8(1), uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), true, true)
	f.Add(uint16(9000), uint16(300), uint8(0), uint8(2), uint8(13), uint8(4), uint8(11), uint8(40), true, false)
	f.Fuzz(func(t *testing.T, rows, cols uint16, dtype, rankLog, interval, tccd, trrd, tfaw uint8, refresh, dual bool) {
		ranks := 1 << (rankLog % 3)
		spec, err := dram.LPDDR5("gemv fuzz", 64, 6400, ranks, int64(ranks)*(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		spec.Timing.TCCD = 1 + int(tccd%4)
		spec.Timing.TRRD = int(trrd % 16)
		spec.Timing.TFAW = int(tfaw % 64)
		cfg := DefaultAiM(spec.Geometry)
		cfg.MACIntervalCycles = 1 + int(interval%16)
		d, err := NewDevice(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := mapping.MatrixConfig{
			Rows:       1 + int(rows%16384),
			Cols:       1 + int(cols%16384),
			DTypeBytes: []int{1, 2, 4}[dtype%3],
		}
		checkGEMV(t, d, m, refresh, dual)
	})
}
