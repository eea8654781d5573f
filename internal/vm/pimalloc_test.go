package vm

import (
	"testing"

	"facil/internal/dram"
	"facil/internal/mapping"
)

func testAddressSpace(t *testing.T) *AddressSpace {
	t.Helper()
	g := dram.Geometry{
		Channels:        4,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		Rows:            1 << 12, // 512 MiB total
		RowBytes:        2048,
		TransferBytes:   32,
	}
	mem := mapping.MemoryConfig{Geometry: g, HugePageBytes: HugePageBytes}
	as, err := NewAddressSpace(mem, mapping.AiMChunk(g))
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestPimallocRecordsMapIDInPTEs(t *testing.T) {
	as := testAddressSpace(t)
	m := mapping.MatrixConfig{Rows: 1024, Cols: 4096, DTypeBytes: 2} // 8 MiB
	reg, err := as.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	if reg.MapID != 8 {
		t.Errorf("region MapID = %d, want 8", reg.MapID)
	}
	if len(reg.Pages) != 4 {
		t.Errorf("8 MiB region backed by %d huge pages, want 4", len(reg.Pages))
	}
	// Every page walk must return the selected MapID.
	for off := int64(0); off < reg.MappedBytes; off += HugePageBytes {
		tr, err := as.PageTable().Walk(reg.VA + uint64(off))
		if err != nil {
			t.Fatal(err)
		}
		if tr.MapID != reg.MapID || tr.PageBytes != HugePageBytes {
			t.Errorf("walk at +%d: %+v", off, tr)
		}
	}
	// Physical pages are huge-page aligned.
	for _, p := range reg.Pages {
		if p%HugePageBytes != 0 {
			t.Errorf("physical page %#x misaligned", p)
		}
	}
}

func TestPimallocRegionGeometry(t *testing.T) {
	as := testAddressSpace(t)
	m := mapping.MatrixConfig{Rows: 100, Cols: 1000, DTypeBytes: 2}
	reg, err := as.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	if reg.VA%HugePageBytes != 0 {
		t.Errorf("VA %#x not huge-aligned", reg.VA)
	}
	if reg.Bytes != m.PaddedBytes() {
		t.Errorf("Bytes = %d, want padded %d", reg.Bytes, m.PaddedBytes())
	}
	if reg.MappedBytes%HugePageBytes != 0 {
		t.Errorf("MappedBytes = %d not page multiple", reg.MappedBytes)
	}
}

func TestConventionalAlloc(t *testing.T) {
	as := testAddressSpace(t)
	reg, err := as.Alloc(10 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if reg.MapID != mapping.ConventionalMapID {
		t.Errorf("conventional region MapID = %d", reg.MapID)
	}
	if len(reg.Pages) != 3 {
		t.Errorf("10 KB backed by %d base pages, want 3", len(reg.Pages))
	}
	tr, err := as.PageTable().Walk(reg.VA + 5000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PageBytes != BasePageBytes {
		t.Errorf("walk = %+v", tr)
	}
	if _, err := as.Alloc(0); err == nil {
		t.Error("zero-byte allocation accepted")
	}
}

func TestFreeReturnsMemory(t *testing.T) {
	as := testAddressSpace(t)
	before := as.buddy.FreeFrames()
	reg, err := as.Pimalloc(mapping.MatrixConfig{Rows: 1024, Cols: 1024, DTypeBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if as.buddy.FreeFrames() >= before {
		t.Error("allocation did not consume frames")
	}
	if err := as.Free(reg); err != nil {
		t.Fatal(err)
	}
	if got := as.buddy.FreeFrames(); got != before {
		t.Errorf("free frames = %d after Free, want %d", got, before)
	}
	if _, err := as.PageTable().Walk(reg.VA); err == nil {
		t.Error("region still mapped after Free")
	}
}

// TestPimallocRejectsOversize requires a matrix larger than physical
// memory to fail up front and leave every frame free — including one
// whose padded size fits int64 but whose huge-page rounding would not.
func TestPimallocRejectsOversize(t *testing.T) {
	as := testAddressSpace(t)
	before := as.buddy.FreeFrames()
	for _, m := range []mapping.MatrixConfig{
		{Rows: 1<<15 + 1, Cols: 8192, DTypeBytes: 2}, // 512 MiB + one row
		{Rows: 1<<50 - 1, Cols: 4096, DTypeBytes: 2}, // 2^63 - 8 KiB
	} {
		if _, err := as.Pimalloc(m); err == nil {
			t.Errorf("%+v: pimalloc past physical memory accepted", m)
		}
	}
	if got := as.buddy.FreeFrames(); got != before {
		t.Errorf("free frames = %d after refused pimallocs, want %d", got, before)
	}
}

func TestPimallocDistinctRegionsDoNotOverlap(t *testing.T) {
	as := testAddressSpace(t)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		reg, err := as.Pimalloc(mapping.MatrixConfig{Rows: 512, Cols: 2048, DTypeBytes: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range reg.Pages {
			if seen[p] {
				t.Fatalf("physical page %#x handed out twice", p)
			}
			seen[p] = true
		}
	}
}

func TestNewAddressSpaceValidation(t *testing.T) {
	g := dram.JetsonOrinLPDDR5.Geometry
	mem := mapping.MemoryConfig{Geometry: g, HugePageBytes: 4 << 20}
	if _, err := NewAddressSpace(mem, mapping.AiMChunk(g)); err == nil {
		t.Error("non-2MB huge page accepted")
	}
}
