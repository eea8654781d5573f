package vm

import (
	"fmt"
	"testing"

	"facil/internal/dram"
	"facil/internal/mapping"
)

// placementRig is the paper's Fig. 7 access path around an address
// space: TLB/page walk to {PA, MapID}, then the mapping table's mux
// (Fig. 12) to a DRAM address. The placement oracle checks Pimalloc
// through it.
type placementRig struct {
	g     dram.Geometry
	mem   mapping.MemoryConfig
	chunk mapping.ChunkConfig
	space *AddressSpace
	tlb   *TLB
	table *mapping.Table
}

func newPlacementRig(t *testing.T) *placementRig {
	t.Helper()
	spec, err := dram.LPDDR5("placement test", 64, 6400, 2, 2<<30) // 4ch x 2rk x 16ba
	if err != nil {
		t.Fatal(err)
	}
	r := &placementRig{
		g:     spec.Geometry,
		mem:   mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: HugePageBytes},
		chunk: mapping.AiMChunk(spec.Geometry),
	}
	if r.space, err = NewAddressSpace(r.mem, r.chunk); err != nil {
		t.Fatal(err)
	}
	if r.tlb, err = NewTLB(64, 4, r.space.PageTable()); err != nil {
		t.Fatal(err)
	}
	if r.table, err = mapping.NewTable(r.mem, r.chunk); err != nil {
		t.Fatal(err)
	}
	return r
}

// free releases a region and shoots down the TLB.
func (r *placementRig) free(reg *Region) error {
	if err := r.space.Free(reg); err != nil {
		return err
	}
	r.tlb.Flush()
	return nil
}

// resolve translates a virtual address under its page's MapID, or as if
// the page used the conventional mapping when conventional is set.
func (r *placementRig) resolve(va uint64, conventional bool) (dram.Addr, error) {
	tr, err := r.tlb.Translate(va)
	if err != nil {
		return dram.Addr{}, err
	}
	m := r.table.Lookup(tr.MapID)
	if conventional {
		m = r.table.Conventional()
	}
	a, _ := m.Translate(tr.Phys)
	return a, nil
}

// placementReport summarizes verifyPlacement.
type placementReport struct {
	hugePages     int
	chunksChecked int
}

// verifyPlacement checks, through the real page tables and the mapping
// mux, that a pimalloc'd matrix satisfies the paper's three placement
// requirements (Sec. II-C) in physical memory:
//
//  1. each chunk is contiguous inside one DRAM row of one bank,
//  2. each matrix row (or row partition) stays within one bank, and
//  3. the k-th chunks of the rows of one pass sit at identical
//     (row, column) coordinates in pairwise-distinct banks, enabling
//     lock-step all-bank execution.
//
// Because huge pages are physically scattered, the lock-step property
// must hold within every huge page independently — which it does, since
// one pass's rows exactly fill one huge page.
func (r *placementRig) verifyPlacement(reg *Region, m mapping.MatrixConfig) (placementReport, error) {
	sel, err := mapping.SelectMapping(m, r.mem, r.chunk)
	if err != nil {
		return placementReport{}, err
	}
	if sel.ID != reg.MapID {
		return placementReport{}, fmt.Errorf("region MapID %d does not match selector %d", reg.MapID, sel.ID)
	}
	g := r.g
	rowBytes := int64(m.PaddedRowBytes())
	partBytes := rowBytes / int64(sel.PartitionsPerRow)
	chunkBytes := int64(r.chunk.ColBytes)
	report := placementReport{hugePages: len(reg.Pages)}

	totalRows := int64(m.Rows)
	pass := int64(sel.RowsPerPass)
	for passStart := int64(0); passStart < totalRows; passStart += pass {
		rows := min(pass, totalRows-passStart)
		// Reference coordinates per chunk index from the first row
		// of the pass.
		type coord struct{ row, col int }
		var refs []coord
		seen := make(map[int]map[int]bool) // chunk index -> banks
		for row := int64(0); row < rows; row++ {
			va := reg.VA + uint64((passStart+row)*rowBytes)
			for part := int64(0); part < int64(sel.PartitionsPerRow); part++ {
				partBank := -1
				for c := int64(0); c*chunkBytes < partBytes; c++ {
					base := va + uint64(part*partBytes+c*chunkBytes)
					first, err := r.resolve(base, false)
					if err != nil {
						return report, err
					}
					// (1) chunk contiguity.
					for b := int64(0); b < chunkBytes; b += int64(g.TransferBytes) {
						a, err := r.resolve(base+uint64(b), false)
						if err != nil {
							return report, err
						}
						if a.GlobalBank(g) != first.GlobalBank(g) || a.Row != first.Row {
							return report, fmt.Errorf("chunk at va %#x scattered: %v vs %v", base, a, first)
						}
						if a.Column != first.Column+int(b)/g.TransferBytes {
							return report, fmt.Errorf("chunk at va %#x non-contiguous columns", base)
						}
					}
					// (2) row partition bank consistency.
					if partBank == -1 {
						partBank = first.GlobalBank(g)
					} else if partBank != first.GlobalBank(g) {
						return report, fmt.Errorf("row %d partition %d spans banks", passStart+row, part)
					}
					// (3) lock-step alignment across the pass.
					ci := int(part*(partBytes/chunkBytes) + c)
					if row == 0 {
						refs = append(refs, coord{first.Row, first.Column})
						seen[ci] = map[int]bool{}
					} else if ci < len(refs) {
						if first.Row != refs[ci].row || first.Column != refs[ci].col {
							return report, fmt.Errorf("row %d chunk %d misaligned: (%d,%d) vs (%d,%d)",
								passStart+row, ci, first.Row, first.Column, refs[ci].row, refs[ci].col)
						}
					}
					if seen[ci][first.GlobalBank(g)] {
						return report, fmt.Errorf("pass at row %d: chunk %d bank collision", passStart, ci)
					}
					seen[ci][first.GlobalBank(g)] = true
					report.chunksChecked++
				}
			}
		}
	}
	return report, nil
}

func TestEndToEndPimallocPlacement(t *testing.T) {
	r := newPlacementRig(t)
	// Multi-huge-page matrix with physically scattered pages: the
	// placement invariants must hold through the real page tables.
	m := mapping.MatrixConfig{Rows: 2048, Cols: 4096, DTypeBytes: 2} // 16 MiB
	reg, err := r.space.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.verifyPlacement(reg, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.hugePages != 8 {
		t.Errorf("hugePages = %d, want 8", rep.hugePages)
	}
	if rep.chunksChecked == 0 {
		t.Error("no chunks verified")
	}
}

func TestEndToEndPlacementWithFragmentedMemory(t *testing.T) {
	// Allocate and free churn first so the huge pages are genuinely
	// scattered, then verify placement still holds per page.
	r := newPlacementRig(t)
	var regions []*Region
	for i := 0; i < 6; i++ {
		reg, err := r.space.Alloc(3 << 20)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, reg)
	}
	// Free every other one to punch holes.
	for i := 0; i < len(regions); i += 2 {
		if err := r.free(regions[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := mapping.MatrixConfig{Rows: 1024, Cols: 4096, DTypeBytes: 2}
	reg, err := r.space.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.verifyPlacement(reg, m); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyPlacementPartitioned(t *testing.T) {
	r := newPlacementRig(t)
	// 32 KB rows > 16 KB per-bank share: partitioned placement.
	m := mapping.MatrixConfig{Rows: 256, Cols: 16384, DTypeBytes: 2}
	reg, err := r.space.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Selection.Partitioned {
		t.Fatal("expected partitioned placement")
	}
	if _, err := r.verifyPlacement(reg, m); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyPlacementRejectsWrongRegion(t *testing.T) {
	r := newPlacementRig(t)
	m := mapping.MatrixConfig{Rows: 1024, Cols: 1024, DTypeBytes: 2}
	reg, err := r.space.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	other := mapping.MatrixConfig{Rows: 256, Cols: 16384, DTypeBytes: 2}
	if _, err := r.verifyPlacement(reg, other); err == nil {
		t.Error("mismatched matrix accepted")
	}
}

func TestResolveDualView(t *testing.T) {
	r := newPlacementRig(t)
	m := mapping.MatrixConfig{Rows: 512, Cols: 4096, DTypeBytes: 2}
	reg, err := r.space.Pimalloc(m)
	if err != nil {
		t.Fatal(err)
	}
	pimView, err := r.resolve(reg.VA+32, false)
	if err != nil {
		t.Fatal(err)
	}
	convView, err := r.resolve(reg.VA+32, true)
	if err != nil {
		t.Fatal(err)
	}
	if pimView == convView {
		t.Error("PIM and conventional views agree; mux has no effect")
	}
	// Conventionally allocated memory resolves identically both ways.
	plain, err := r.space.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.resolve(plain.VA, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.resolve(plain.VA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("conventional region resolved differently through the mux")
	}
}
