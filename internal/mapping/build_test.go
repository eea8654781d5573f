package mapping

import (
	"math/rand"
	"testing"

	"facil/internal/dram"
)

func TestBuildPIMRoundTrip(t *testing.T) {
	mc := testMem()
	for _, chunk := range []ChunkConfig{AiMChunk(mc.Geometry), HBMPIMChunk(mc.Geometry)} {
		for id := MinMapID(mc, chunk); id <= MaxMapID(mc); id++ {
			m, err := BuildPIM(mc, chunk, id)
			if err != nil {
				t.Fatalf("%s MapID %d: %v", chunk.Style, id, err)
			}
			rng := rand.New(rand.NewSource(int64(id)))
			max := uint64(mc.Geometry.CapacityBytes())
			for i := 0; i < 2000; i++ {
				pa := rng.Uint64() % max
				a, off := m.Translate(pa)
				if !a.Valid(mc.Geometry) {
					t.Fatalf("%s MapID %d: Translate(%#x) invalid %v", chunk.Style, id, pa, a)
				}
				if back := m.Inverse(a, off); back != pa {
					t.Fatalf("%s MapID %d: round trip %#x -> %#x", chunk.Style, id, pa, back)
				}
			}
		}
	}
}

func TestBuildPIMRange(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	if _, err := BuildPIM(mc, chunk, MinMapID(mc, chunk)-1); err == nil {
		t.Error("MapID below minimum accepted")
	}
	if _, err := BuildPIM(mc, chunk, MaxMapID(mc)+1); err == nil {
		t.Error("MapID above maximum accepted")
	}
}

// TestAiMPlacementInvariants checks the three optimal-placement properties
// of paper Sec. II-C for the AiM layout.
func TestAiMPlacementInvariants(t *testing.T) {
	mc := testMem()
	g := mc.Geometry
	chunk := AiMChunk(g)
	// 4096-column FP16 matrix: padded row = 8 KB, MapID = 8.
	matrix := MatrixConfig{Rows: 256, Cols: 4096, DTypeBytes: 2}
	sel, err := SelectMapping(matrix, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if sel.ID != 8 || sel.Partitioned {
		t.Fatalf("selection = %+v, want MapID 8 unpartitioned", sel)
	}
	m, err := BuildPIM(mc, chunk, sel.ID)
	if err != nil {
		t.Fatal(err)
	}

	rowBytes := matrix.PaddedRowBytes()

	// (1) Chunk contiguity: every chunk sits in one bank, one DRAM row,
	// spanning consecutive columns.
	for _, base := range []uint64{0, uint64(rowBytes), uint64(5 * rowBytes), 2048} {
		first, _ := m.Translate(base)
		for b := 0; b < chunk.ColBytes; b += g.TransferBytes {
			a, _ := m.Translate(base + uint64(b))
			if a.GlobalBank(g) != first.GlobalBank(g) || a.Row != first.Row {
				t.Fatalf("chunk at %#x scattered: %v vs %v", base, a, first)
			}
			if a.Column != first.Column+b/g.TransferBytes {
				t.Fatalf("chunk at %#x non-contiguous columns: %v", base, a)
			}
		}
	}

	// (2) One matrix row entirely in one bank.
	for r := 0; r < 8; r++ {
		base := uint64(r * rowBytes)
		first, _ := m.Translate(base)
		for b := 0; b < rowBytes; b += g.TransferBytes {
			a, _ := m.Translate(base + uint64(b))
			if a.GlobalBank(g) != first.GlobalBank(g) {
				t.Fatalf("matrix row %d spans banks: %v vs %v", r, a, first)
			}
		}
	}

	// (3) Lock-step all-bank alignment: the k-th chunk of matrix rows
	// 0..totalBanks-1 sits at identical (DRAM row, column) coordinates
	// in pairwise-distinct banks.
	banks := g.TotalBanks()
	for k := 0; k < rowBytes/chunk.ColBytes; k++ {
		ref, _ := m.Translate(uint64(k * chunk.ColBytes))
		seen := map[int]bool{}
		for r := 0; r < banks; r++ {
			a, _ := m.Translate(uint64(r*rowBytes + k*chunk.ColBytes))
			if a.Row != ref.Row || a.Column != ref.Column {
				t.Fatalf("row %d chunk %d misaligned: %v vs ref %v", r, k, a, ref)
			}
			gb := a.GlobalBank(g)
			if seen[gb] {
				t.Fatalf("row %d chunk %d collides on bank %d", r, k, gb)
			}
			seen[gb] = true
		}
		if len(seen) != banks {
			t.Fatalf("chunk %d covers %d banks, want %d", k, len(seen), banks)
		}
	}
}

// TestHBMPIMPlacementInvariants checks that one HBM-PIM chunk (8 matrix
// rows x 256 B) lands in a single DRAM row of a single bank.
func TestHBMPIMPlacementInvariants(t *testing.T) {
	mc := testMem()
	g := mc.Geometry
	chunk := HBMPIMChunk(g)
	// 128-column FP16 matrix: padded row = 256 B = chunk column size.
	matrix := MatrixConfig{Rows: 1024, Cols: 128, DTypeBytes: 2}
	sel, err := SelectMapping(matrix, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildPIM(mc, chunk, sel.ID)
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := matrix.PaddedRowBytes()
	// The first 8 matrix rows form one chunk: same bank, same DRAM row.
	ref, _ := m.Translate(0)
	for r := 0; r < chunk.Rows; r++ {
		for b := 0; b < rowBytes; b += g.TransferBytes {
			a, _ := m.Translate(uint64(r*rowBytes + b))
			if a.GlobalBank(g) != ref.GlobalBank(g) || a.Row != ref.Row {
				t.Fatalf("chunk row %d byte %d left the DRAM row: %v vs %v", r, b, a, ref)
			}
		}
	}
	// Matrix rows 8..15 (the next chunk) belong to a different PU.
	next, _ := m.Translate(uint64(chunk.Rows * rowBytes))
	if next.GlobalBank(g) == ref.GlobalBank(g) {
		t.Fatalf("consecutive chunks on the same PU: %v vs %v", next, ref)
	}
}

// TestPartitionedPlacement reproduces paper Fig. 10: rows larger than the
// per-bank share of a huge page are split across the PUs of different
// channels, with PU-changing bits at the MSB of the page offset.
func TestPartitionedPlacement(t *testing.T) {
	mc := testMem()
	g := mc.Geometry
	chunk := AiMChunk(g)
	// 32768-column FP16 rows = 64 KB > 32 KB per bank.
	matrix := MatrixConfig{Rows: 16, Cols: 32768, DTypeBytes: 2}
	sel, err := SelectMapping(matrix, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Partitioned {
		t.Fatal("large-row matrix not partitioned")
	}
	if sel.ID != MaxMapID(mc) {
		t.Errorf("partitioned MapID = %d, want max %d", sel.ID, MaxMapID(mc))
	}
	if sel.PartitionsPerRow != 2 {
		t.Errorf("PartitionsPerRow = %d, want 2 (64KB row / 32KB per bank)", sel.PartitionsPerRow)
	}
	m, err := BuildPIM(mc, chunk, sel.ID)
	if err != nil {
		t.Fatal(err)
	}
	rowBytes := matrix.PaddedRowBytes()
	perBank := mc.BytesPerBank()
	// One matrix row must land on exactly PartitionsPerRow distinct PUs,
	// each receiving a contiguous half.
	seen := map[int]bool{}
	for b := 0; b < rowBytes; b += g.TransferBytes {
		a, _ := m.Translate(uint64(b))
		seen[a.GlobalBank(g)] = true
	}
	if len(seen) != sel.PartitionsPerRow {
		t.Errorf("row spread over %d PUs, want %d", len(seen), sel.PartitionsPerRow)
	}
	// The first perBank bytes stay on one PU.
	ref, _ := m.Translate(0)
	for b := 0; b < perBank; b += g.TransferBytes {
		a, _ := m.Translate(uint64(b))
		if a.GlobalBank(g) != ref.GlobalBank(g) {
			t.Fatalf("first partition scattered at byte %d", b)
		}
	}
}

func TestTable(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	tab, err := NewTable(mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	min, max := tab.Range()
	if min != MinMapID(mc, chunk) || max != MaxMapID(mc) {
		t.Errorf("Range = [%d,%d], want [%d,%d]", min, max, MinMapID(mc, chunk), MaxMapID(mc))
	}
	if got, want := tab.Size(), MapIDCount(mc, chunk)+1; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	// Conventional fallback for out-of-range IDs.
	if tab.Lookup(ConventionalMapID) != tab.Conventional() {
		t.Error("MapID 0 did not resolve to conventional mapping")
	}
	if tab.Lookup(max+5) != tab.Conventional() {
		t.Error("out-of-range MapID did not fall back to conventional")
	}
	for id := min; id <= max; id++ {
		if tab.Lookup(id) == tab.Conventional() {
			t.Errorf("PIM MapID %d resolved to conventional", id)
		}
	}
	if tab.Memory().HugePageBytes != mc.HugePageBytes {
		t.Error("Memory() lost configuration")
	}
}

func TestBuildPIMOnRealPlatformGeometries(t *testing.T) {
	for _, spec := range []dram.Spec{
		dram.JetsonOrinLPDDR5, dram.MacbookLPDDR5,
		dram.IdeaPadLPDDR5X, dram.IPhoneLPDDR5,
	} {
		mc := MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
		chunk := AiMChunk(spec.Geometry)
		tab, err := NewTable(mc, chunk)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if tab.Size() < 2 {
			t.Errorf("%s: only %d mappings", spec.Name, tab.Size())
		}
	}
}
