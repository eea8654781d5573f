package relayout

import (
	"testing"

	"facil/internal/dram"
	"facil/internal/mapping"
)

func testEngine(t *testing.T) (*Engine, *mapping.Table, dram.Spec) {
	t.Helper()
	spec, err := dram.LPDDR5("relayout test", 64, 6400, 2, 2<<30) // 4 channels
	if err != nil {
		t.Fatal(err)
	}
	mc := mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
	tab, err := mapping.NewTable(mc, mapping.AiMChunk(spec.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(spec, tab, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	return e, tab, spec
}

func TestConventionalSequentialNearPeak(t *testing.T) {
	e, _, spec := testEngine(t)
	bw, err := e.SequentialReadBandwidth(mapping.ConventionalMapID)
	if err != nil {
		t.Fatal(err)
	}
	peak := spec.PeakBandwidthGBs()
	// Paper Sec. VI-A: the conventional mapping "achieves near-peak
	// sequential read bandwidth".
	if bw < 0.85*peak {
		t.Errorf("conventional sequential read = %.1f GB/s, want >= 85%% of %.1f", bw, peak)
	}
}

func TestRelayoutCostScalesLinearly(t *testing.T) {
	e, tab, _ := testEngine(t)
	min, _ := tab.Range()
	small, err := e.Cost(min, mapping.ConventionalMapID, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.Cost(min, mapping.ConventionalMapID, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	ratio := large.Seconds / small.Seconds
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4x size gave %.2fx time", ratio)
	}
	if small.EffectiveGBs != large.EffectiveGBs {
		t.Error("cache miss: same pair measured twice with different bandwidth")
	}
}

func TestRelayoutBandwidthPlausible(t *testing.T) {
	e, tab, spec := testEngine(t)
	min, _ := tab.Range()
	res, err := e.Cost(min, mapping.ConventionalMapID, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	peak := spec.PeakBandwidthGBs()
	if res.EffectiveGBs <= 0.3*peak || res.EffectiveGBs > peak {
		t.Errorf("relayout effective BW = %.1f GB/s, peak %.1f", res.EffectiveGBs, peak)
	}
	// Sanity: 2*bytes at effective BW.
	want := 2 * float64(res.Bytes) / (res.EffectiveGBs * 1e9)
	if diff := res.Seconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Seconds = %g, want %g", res.Seconds, want)
	}
}

func TestRelayoutJetsonScaleMatchesPaperOrder(t *testing.T) {
	// On the Jetson memory system, re-laying the full 16 GB Llama3-8B
	// weight set must land in the hundreds-of-milliseconds range the
	// paper's Fig. 6 implies (~200 ms at ~160 GB/s effective).
	spec := dram.JetsonOrinLPDDR5
	mc := mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
	tab, err := mapping.NewTable(mc, mapping.AiMChunk(spec.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(spec, tab, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	min, _ := tab.Range()
	res, err := e.Cost(min, mapping.ConventionalMapID, 16<<30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds < 0.1 || res.Seconds > 0.6 {
		t.Errorf("full-model relayout = %.3f s (eff %.1f GB/s), expected 0.1-0.6 s",
			res.Seconds, res.EffectiveGBs)
	}
}

func TestCostNegativeRejected(t *testing.T) {
	e, _, _ := testEngine(t)
	if _, err := e.Cost(0, 0, -1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	spec, err := dram.LPDDR5("a", 32, 6400, 2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	other, err := dram.LPDDR5("b", 64, 6400, 2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	mc := mapping.MemoryConfig{Geometry: other.Geometry, HugePageBytes: 2 << 20}
	tab, err := mapping.NewTable(mc, mapping.AiMChunk(other.Geometry))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(spec, tab, 0); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

// SequentialReadBandwidth measures the achieved bandwidth of a pure
// sequential read stream under a mapping — used to verify the paper's
// claim that the conventional row:rank:column:bank:channel mapping
// achieves near-peak sequential bandwidth.
func (e *Engine) SequentialReadBandwidth(id mapping.MapID) (float64, error) {
	g := e.spec.Geometry
	tb := int64(g.TransferBytes)
	n := e.sample / tb
	m := e.table.Lookup(id)
	var i int64
	sr, err := dram.MeasureStream(e.spec, func(r *dram.Request) bool {
		if i >= n {
			return false
		}
		a, _ := m.Translate(uint64(i) * uint64(tb))
		*r = dram.Request{Addr: a}
		i++
		return true
	}, 0)
	if err != nil {
		return 0, err
	}
	return sr.BandwidthGBs, nil
}
