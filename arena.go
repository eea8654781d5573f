package facil

import (
	"fmt"

	"facil/internal/mapping"
	"facil/internal/soc"
	"facil/internal/vm"
)

// Arena is the user-facing pimalloc walkthrough of paper Fig. 7 on one
// platform's memory system. Pimalloc records a PIM-optimized MapID in
// the huge-page PTEs; every access then walks the TLB to {PA, MapID} and
// the mapping table, which is the memory-controller mux of Fig. 12,
// applies that page's PA-to-DA mapping.
type Arena struct {
	space *vm.AddressSpace
	tlb   *vm.TLB
	table *mapping.Table
}

// DRAMLocation is a fully resolved burst location.
type DRAMLocation struct {
	Channel, Rank, Bank, Row, Column int
}

// String renders the location.
func (d DRAMLocation) String() string {
	return fmt.Sprintf("ch%d rk%d ba%d row%d col%d", d.Channel, d.Rank, d.Bank, d.Row, d.Column)
}

// Tensor is a pimalloc-allocated weight matrix.
type Tensor struct {
	region *vm.Region

	// VA is the virtual base address; the SoC sees the matrix as a
	// plain row-major array starting here.
	VA uint64
	// Rows, Cols, DTypeBytes echo the matrix configuration.
	Rows, Cols, DTypeBytes int
	// Bytes is the padded allocation size.
	Bytes int64
	// MapID is the PA-to-DA mapping recorded in the PTEs.
	MapID int
	// Partitioned reports column-wise partitioning across PUs
	// (rows larger than the per-bank huge-page share).
	Partitioned bool
	// PartitionsPerRow is the partial-sum reduction factor.
	PartitionsPerRow int
	// MappingLayout renders the page-offset bit assignment MSB->LSB.
	MappingLayout string
	// HugePages is the number of 2 MB pages backing the tensor.
	HugePages int
}

// NewArena builds an arena on a platform's memory system (see Platforms).
func NewArena(platform string) (*Arena, error) {
	p, err := soc.ByName(platform)
	if err != nil {
		return nil, err
	}
	mem := mapping.MemoryConfig{Geometry: p.Spec.Geometry, HugePageBytes: vm.HugePageBytes}
	chunk := mapping.AiMChunk(p.Spec.Geometry)
	space, err := vm.NewAddressSpace(mem, chunk)
	if err != nil {
		return nil, err
	}
	tlb, err := vm.NewTLB(64, 4, space.PageTable())
	if err != nil {
		return nil, err
	}
	table, err := mapping.NewTable(mem, chunk)
	if err != nil {
		return nil, err
	}
	return &Arena{space: space, tlb: tlb, table: table}, nil
}

// Pimalloc allocates a rows x cols matrix of dtypeBytes elements with a
// PIM-optimized mapping.
func (a *Arena) Pimalloc(rows, cols, dtypeBytes int) (*Tensor, error) {
	m := mapping.MatrixConfig{Rows: rows, Cols: cols, DTypeBytes: dtypeBytes}
	reg, err := a.space.Pimalloc(m)
	if err != nil {
		return nil, err
	}
	return &Tensor{
		region:           reg,
		VA:               reg.VA,
		Rows:             rows,
		Cols:             cols,
		DTypeBytes:       dtypeBytes,
		Bytes:            reg.Bytes,
		MapID:            int(reg.MapID),
		Partitioned:      reg.Selection.Partitioned,
		PartitionsPerRow: reg.Selection.PartitionsPerRow,
		MappingLayout:    a.table.Lookup(reg.MapID).String(),
		HugePages:        len(reg.Pages),
	}, nil
}

// Free releases a tensor's huge pages, unmaps it and shoots down the
// TLB, so no stale translation (or stale MapID) survives the unmap.
func (a *Arena) Free(t *Tensor) error {
	if t.region == nil {
		return fmt.Errorf("facil: tensor already freed")
	}
	if err := a.space.Free(t.region); err != nil {
		return err
	}
	a.tlb.Flush()
	t.region = nil
	return nil
}

// Translate resolves a virtual address all the way to its DRAM location:
// TLB/page walk yields {physical address, MapID}; the mapping mux applies
// the mapping. This is exactly the access path of paper Fig. 7(b)/(c).
func (a *Arena) Translate(va uint64) (DRAMLocation, error) {
	return a.resolve(va, false)
}

// resolve walks the TLB to {PA, MapID} and translates the PA under the
// page's mapping, or under the conventional one when conventional is set.
func (a *Arena) resolve(va uint64, conventional bool) (DRAMLocation, error) {
	tr, err := a.tlb.Translate(va)
	if err != nil {
		return DRAMLocation{}, err
	}
	m := a.table.Lookup(tr.MapID)
	if conventional {
		m = a.table.Conventional()
	}
	d, _ := m.Translate(tr.Phys)
	return DRAMLocation{Channel: d.Channel, Rank: d.Rank, Bank: d.Bank, Row: d.Row, Column: d.Column}, nil
}

// ElementVA returns the virtual address of matrix element (row, col),
// accounting for row padding.
func (a *Arena) ElementVA(t *Tensor, row, col int) (uint64, error) {
	if row < 0 || row >= t.Rows || col < 0 || col >= t.Cols {
		return 0, fmt.Errorf("facil: element (%d,%d) outside %dx%d", row, col, t.Rows, t.Cols)
	}
	m := mapping.MatrixConfig{Rows: t.Rows, Cols: t.Cols, DTypeBytes: t.DTypeBytes}
	return t.VA + uint64(row)*uint64(m.PaddedRowBytes()) + uint64(col)*uint64(t.DTypeBytes), nil
}

// ElementLocation resolves matrix element (row, col) of a tensor.
func (a *Arena) ElementLocation(t *Tensor, row, col int) (DRAMLocation, error) {
	va, err := a.ElementVA(t, row, col)
	if err != nil {
		return DRAMLocation{}, err
	}
	return a.Translate(va)
}

// ConventionalLocation shows where the bytes at a virtual address would
// land if their page used the SoC's default mapping instead of its
// MapID — the contrast that motivates FACIL.
func (a *Arena) ConventionalLocation(va uint64) (DRAMLocation, error) {
	return a.resolve(va, true)
}

// MapIDOf returns the MapID the page table records for a virtual address.
func (a *Arena) MapIDOf(va uint64) (int, error) {
	tr, err := a.tlb.Translate(va)
	if err != nil {
		return 0, err
	}
	return int(tr.MapID), nil
}

// SupportedMappings returns the mux fan-in (PIM mappings plus the
// conventional one).
func (a *Arena) SupportedMappings() int { return a.table.Size() }

// TLBHitRate reports the arena TLB's hit rate so far.
func (a *Arena) TLBHitRate() float64 { return a.tlb.Stats().HitRate() }
