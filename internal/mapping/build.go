package mapping

import (
	"fmt"

	"facil/internal/addr"
	"facil/internal/dram"
)

// BuildPIM constructs the full PA-to-DA mapping selected by a MapID for a
// chunk configuration (paper Fig. 8). Bits are laid out LSB to MSB inside
// the huge-page offset as:
//
//	AiM:     offset | column(chunkCol) | row(lo) | bank rank channel | row(mid)
//	HBM-PIM: offset | column(chunkColLow) | row(lo) | column(chunkRow) |
//	         bank rank channel | row(mid)
//
// where len(column)+len(row(lo)) (+len(column chunkRow)) == MapID, and
// row(mid) fills the rest of the page offset. Physical-address bits above
// the huge page provide the remaining row MSBs.
//
// When the MapID equals MaxMapID, row(mid) is empty and the PU-changing
// bits occupy the top of the page offset — the column-wise partitioned
// placement of paper Fig. 10.
func BuildPIM(mc MemoryConfig, chunk ChunkConfig, id MapID) (*addr.Mapping, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	g := mc.Geometry
	if err := chunk.Validate(g); err != nil {
		return nil, err
	}
	min, max := MinMapID(mc, chunk), MaxMapID(mc)
	if id < min || id > max {
		return nil, fmt.Errorf("mapping: MapID %d outside supported range [%d, %d]", id, min, max)
	}

	colLow := chunk.chunkColBits(g)
	colHigh := chunk.chunkRowBits()
	rowLow := int(id) - colLow - colHigh
	puBits := mc.PUChangingBits()
	rowMid := mc.HugePageBits() - g.OffsetBits() - int(id) - puBits
	if rowMid < 0 {
		return nil, fmt.Errorf("mapping: MapID %d does not fit in a %d B huge page", id, mc.HugePageBytes)
	}
	rowHigh := g.RowBits() - rowLow - rowMid
	if rowHigh < 0 {
		return nil, fmt.Errorf("mapping: geometry has only %d row bits, layout needs %d",
			g.RowBits(), rowLow+rowMid)
	}

	segs := []addr.Segment{
		{Kind: addr.FieldOffset, Bits: g.OffsetBits()},
		{Kind: addr.FieldColumn, Bits: colLow},
		{Kind: addr.FieldRow, Bits: rowLow},
		{Kind: addr.FieldColumn, Bits: colHigh},
		{Kind: addr.FieldBank, Bits: g.BankBits()},
		{Kind: addr.FieldRank, Bits: g.RankBits()},
		{Kind: addr.FieldChannel, Bits: g.ChannelBits()},
		{Kind: addr.FieldRow, Bits: rowMid},
		{Kind: addr.FieldRow, Bits: rowHigh},
	}
	name := fmt.Sprintf("PIM-%s MapID=%d", chunk.Style, id)
	return addr.New(g, name, segs)
}

// BuildConventional returns the SoC's default mapping for the geometry
// (row:rank:column:bank:channel).
func BuildConventional(g dram.Geometry) (*addr.Mapping, error) {
	return addr.Conventional(g)
}

// Table holds every mapping the memory-controller frontend can select:
// index 0 is the conventional mapping, indices MinMapID..MaxMapID are the
// PIM-optimized ones. It corresponds to the mux inputs of paper Fig. 12.
type Table struct {
	mc       MemoryConfig
	chunk    ChunkConfig
	conv     *addr.Mapping
	pim      map[MapID]*addr.Mapping
	min, max MapID
}

// NewTable precomputes the whole mapping family for one platform.
func NewTable(mc MemoryConfig, chunk ChunkConfig) (*Table, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if err := chunk.Validate(mc.Geometry); err != nil {
		return nil, err
	}
	conv, err := BuildConventional(mc.Geometry)
	if err != nil {
		return nil, err
	}
	t := &Table{
		mc:    mc,
		chunk: chunk,
		conv:  conv,
		pim:   make(map[MapID]*addr.Mapping),
		min:   MinMapID(mc, chunk),
		max:   MaxMapID(mc),
	}
	for id := t.min; id <= t.max; id++ {
		m, err := BuildPIM(mc, chunk, id)
		if err != nil {
			return nil, err
		}
		t.pim[id] = m
	}
	return t, nil
}

// Lookup returns the mapping for a MapID; ConventionalMapID (or any ID
// outside the PIM range) resolves to the conventional mapping, mirroring
// the frontend mux default.
func (t *Table) Lookup(id MapID) *addr.Mapping {
	if m, ok := t.pim[id]; ok {
		return m
	}
	return t.conv
}

// Resolve returns the MapID whose mapping Lookup(id) returns: id inside
// the PIM range, ConventionalMapID outside it.
func (t *Table) Resolve(id MapID) MapID {
	if _, ok := t.pim[id]; ok {
		return id
	}
	return ConventionalMapID
}

// Conventional returns the default mapping.
func (t *Table) Conventional() *addr.Mapping { return t.conv }

// Range returns the supported PIM MapID range.
func (t *Table) Range() (min, max MapID) { return t.min, t.max }

// Memory returns the memory configuration the table was built for.
func (t *Table) Memory() MemoryConfig { return t.mc }

// Chunk returns the PIM chunk configuration the table was built for.
func (t *Table) Chunk() ChunkConfig { return t.chunk }

// Size returns the number of mappings in the table including the
// conventional one — the N of the paper's N-to-1 frontend multiplexers.
func (t *Table) Size() int { return len(t.pim) + 1 }
