package relayout

import (
	"testing"

	"facil/internal/mapping"
)

func TestDistinctPairsMeasuredSeparately(t *testing.T) {
	e, tab, _ := testEngine(t)
	min, max := tab.Range()
	if min == max {
		t.Skip("geometry exposes a single PIM mapping")
	}
	a, err := e.Cost(min, mapping.ConventionalMapID, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Cost(max, mapping.ConventionalMapID, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Different source mappings produce independent measurements; both
	// must be positive and finite.
	if a.Seconds <= 0 || b.Seconds <= 0 {
		t.Errorf("non-positive costs: %g, %g", a.Seconds, b.Seconds)
	}
	if a.SimulatedBytes != b.SimulatedBytes {
		t.Errorf("sample windows differ: %d vs %d", a.SimulatedBytes, b.SimulatedBytes)
	}
}

func TestZeroBytesZeroCost(t *testing.T) {
	e, tab, _ := testEngine(t)
	min, _ := tab.Range()
	res, err := e.Cost(min, mapping.ConventionalMapID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds != 0 {
		t.Errorf("zero bytes cost %g s", res.Seconds)
	}
}

func TestPIMMappingSequentialReadSlower(t *testing.T) {
	// A purely sequential SoC stream through a PIM mapping loses the
	// channel interleave (whole chunks pin to one bank), so its
	// single-stream bandwidth must fall below the conventional mapping's.
	e, tab, _ := testEngine(t)
	min, _ := tab.Range()
	conv, err := e.SequentialReadBandwidth(mapping.ConventionalMapID)
	if err != nil {
		t.Fatal(err)
	}
	pim, err := e.SequentialReadBandwidth(min)
	if err != nil {
		t.Fatal(err)
	}
	if pim >= conv {
		t.Errorf("sequential read under PIM mapping (%.1f) not below conventional (%.1f)", pim, conv)
	}
}

// TestReplayKeyDeterminesMappings pins the relayout replay key: engines
// whose tables differ only in chunk shape or huge-page size key their
// replays apart, IDs outside the PIM range key as the conventional
// mapping they resolve to, and equal tables on separate engines share a
// key (so separate Systems replay once).
func TestReplayKeyDeterminesMappings(t *testing.T) {
	e, tab, spec := testEngine(t)
	lo, hi := tab.Range()
	engine := func(hugePage int, chunk mapping.ChunkConfig) *Engine {
		t.Helper()
		tb, err := mapping.NewTable(mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: hugePage}, chunk)
		if err != nil {
			t.Fatal(err)
		}
		en, err := NewEngine(spec, tb, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		return en
	}
	twin := engine(2<<20, mapping.AiMChunk(spec.Geometry))
	hbm := engine(2<<20, mapping.HBMPIMChunk(spec.Geometry))
	page := engine(4<<20, mapping.AiMChunk(spec.Geometry))
	if twin.replayKey(lo, mapping.ConventionalMapID) != e.replayKey(lo, mapping.ConventionalMapID) {
		t.Error("equal tables on separate engines key the same pair apart")
	}
	if hbm.replayKey(lo, mapping.ConventionalMapID) == e.replayKey(lo, mapping.ConventionalMapID) {
		t.Error("tables differing only in chunk share a key")
	}
	if page.replayKey(lo, mapping.ConventionalMapID) == e.replayKey(lo, mapping.ConventionalMapID) {
		t.Error("tables differing only in huge-page size share a key")
	}
	if e.replayKey(hi+1, lo) != e.replayKey(mapping.ConventionalMapID, lo) {
		t.Error("an out-of-range MapID does not key as the conventional mapping it resolves to")
	}
	if e.replayKey(lo, hi) == e.replayKey(hi, lo) {
		t.Error("src and dst are interchangeable in the key")
	}
}
