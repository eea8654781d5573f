package mapping

import (
	"testing"

	"facil/internal/dram"
)

// testMem returns a 4-channel, 2-rank, 8-bank LPDDR5-like memory config
// with 2 MB huge pages (64 total banks, 32 KB per bank per page).
func testMem() MemoryConfig {
	return MemoryConfig{
		Geometry: dram.Geometry{
			Channels:        4,
			RanksPerChannel: 2,
			BanksPerRank:    8,
			Rows:            1 << 15,
			RowBytes:        2048,
			TransferBytes:   32,
		},
		HugePageBytes: 2 << 20,
	}
}

func TestMaxMapIDWorstCaseFromPaper(t *testing.T) {
	// Paper Sec. IV-B: single channel/rank, 8-bank LPDDR5, 2 MB huge
	// pages, 32 B transfers -> max(MapID) = log2(2MB/(8*32B)) = 13.
	mc := MemoryConfig{
		Geometry: dram.Geometry{
			Channels:        1,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			Rows:            1 << 16,
			RowBytes:        2048,
			TransferBytes:   32,
		},
		HugePageBytes: 2 << 20,
	}
	if got := MaxMapID(mc); got != 13 {
		t.Errorf("MaxMapID = %d, want 13", got)
	}
	// 13 - min + 1 PIM mappings + 1 conventional must fit in 4 PTE
	// bits (paper Sec. V-A: "only four bits are required").
	chunk := AiMChunk(mc.Geometry)
	if bits := MapIDBits(mc, chunk); bits > 4 {
		t.Errorf("MapIDBits = %d, want <= 4", bits)
	}
}

func TestMaxMapIDJetson(t *testing.T) {
	mc := MemoryConfig{
		Geometry:      dram.JetsonOrinLPDDR5.Geometry,
		HugePageBytes: 2 << 20,
	}
	// 512 banks * 32 B = 16 KB -> 2 MB / 16 KB = 128 -> 7.
	if got := MaxMapID(mc); got != 7 {
		t.Errorf("Jetson MaxMapID = %d, want 7", got)
	}
}

func TestMinMapID(t *testing.T) {
	mc := testMem()
	aim := AiMChunk(mc.Geometry)
	if got := MinMapID(mc, aim); got != 6 {
		t.Errorf("AiM MinMapID = %d, want 6 (2KB chunk / 32B)", got)
	}
	hbm := HBMPIMChunk(mc.Geometry)
	// colLow = log2(256/32) = 3, chunkRowBits = 3 -> 6.
	if got := MinMapID(mc, hbm); got != 6 {
		t.Errorf("HBM-PIM MinMapID = %d, want 6", got)
	}
}

func TestMapIDCountAndBits(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	// max = log2(2MB/(64*32)) = 10, min = 6 -> 5 PIM mappings.
	if got := MapIDCount(mc, chunk); got != 5 {
		t.Errorf("MapIDCount = %d, want 5", got)
	}
	if got := MapIDBits(mc, chunk); got != 3 {
		t.Errorf("MapIDBits = %d, want 3 (5 PIM + 1 conventional)", got)
	}
}

func TestMemoryConfigValidate(t *testing.T) {
	mc := testMem()
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := mc
	bad.HugePageBytes = 3 << 20
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two huge page accepted")
	}
	bad = mc
	bad.HugePageBytes = 1024 // smaller than one transfer per bank
	if err := bad.Validate(); err == nil {
		t.Error("too-small huge page accepted")
	}
}

func TestChunkConfigValidate(t *testing.T) {
	g := testMem().Geometry
	if err := AiMChunk(g).Validate(g); err != nil {
		t.Errorf("AiM chunk invalid: %v", err)
	}
	if err := HBMPIMChunk(g).Validate(g); err != nil {
		t.Errorf("HBM-PIM chunk invalid: %v", err)
	}
	bad := ChunkConfig{Style: StyleAiM, Rows: 1, ColBytes: 1024}
	if err := bad.Validate(g); err == nil {
		t.Error("chunk not filling a row accepted")
	}
	bad = ChunkConfig{Style: StyleAiM, Rows: 3, ColBytes: 2048}
	if err := bad.Validate(g); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
	bad = ChunkConfig{Style: StyleAiM, Rows: 1, ColBytes: 16}
	if err := bad.Validate(g); err == nil {
		t.Error("chunk smaller than transfer accepted")
	}
}

func TestChunkDimensionsFromPaper(t *testing.T) {
	g := testMem().Geometry
	aim := AiMChunk(g)
	// Paper Sec. II-C: AiM chunk is (1, 1024) at FP16 with 2 KB rows.
	if aim.Rows != 1 || aim.ColElems(2) != 1024 {
		t.Errorf("AiM chunk = (%d, %d), want (1, 1024)", aim.Rows, aim.ColElems(2))
	}
	hbm := HBMPIMChunk(g)
	// HBM-PIM chunk is (8, 128) at FP16.
	if hbm.Rows != 8 || hbm.ColElems(2) != 128 {
		t.Errorf("HBM-PIM chunk = (%d, %d), want (8, 128)", hbm.Rows, hbm.ColElems(2))
	}
}

// RowBitsBelowPU converts a MapID to the paper's AiM prose definition:
// the number of DRAM row bits between the PU-changing bits and the chunk
// column bits.
func RowBitsBelowPU(id MapID, mc MemoryConfig, chunk ChunkConfig) int {
	return int(id) - chunk.chunkColBits(mc.Geometry) - chunk.chunkRowBits()
}

func TestRowBitsBelowPU(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	// MapID 8 (8 KB rows) -> 2 row bits between PU and chunk column
	// bits (4 DRAM rows per matrix row).
	if got := RowBitsBelowPU(8, mc, chunk); got != 2 {
		t.Errorf("RowBitsBelowPU(8) = %d, want 2", got)
	}
}

func TestMapIDString(t *testing.T) {
	if got := ConventionalMapID.String(); got != "MapID(conv)" {
		t.Errorf("conventional MapID string = %q", got)
	}
	if got := MapID(7).String(); got != "MapID(7)" {
		t.Errorf("MapID(7) string = %q", got)
	}
	if !ConventionalMapID.IsConventional() || MapID(3).IsConventional() {
		t.Error("IsConventional misclassifies")
	}
}
