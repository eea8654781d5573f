package mapping

import (
	"fmt"
	"math"
	"math/bits"

	"facil/internal/dram"
)

// MatrixConfig describes a weight matrix handed to pimalloc (paper Fig. 7
// step 1): its dimensions and element size. Rows × Cols elements are laid
// out row-major in virtual memory.
type MatrixConfig struct {
	// Rows and Cols are the matrix dimensions in elements. For GEMV
	// y = W·x, Rows is the output dimension and Cols the input
	// dimension.
	Rows, Cols int
	// DTypeBytes is the element size (2 for FP16/BF16).
	DTypeBytes int
}

// Validate rejects non-positive dimensions, unsupported element sizes
// and shapes whose padded size (PaddedRowBytes, PaddedBytes) overflows
// int64.
func (m MatrixConfig) Validate() error {
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("mapping: matrix dimensions %dx%d must be positive", m.Rows, m.Cols)
	}
	switch m.DTypeBytes {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("mapping: unsupported element size %d", m.DTypeBytes)
	}
	// A padded row is 2^shift bytes.
	shift := bits.Len(uint(m.Cols-1)) + bits.TrailingZeros(uint(m.DTypeBytes))
	if shift > 62 || int64(m.Rows) > math.MaxInt64>>shift {
		return fmt.Errorf("mapping: padded size of the %dx%d matrix of %d-byte elements overflows int64",
			m.Rows, m.Cols, m.DTypeBytes)
	}
	return nil
}

// PaddedRowBytes returns the matrix row size padded up to a power of two:
// 2^ceil(log2(cols)) * dtype (paper Fig. 9, "row_size").
func (m MatrixConfig) PaddedRowBytes() int {
	cols := 1
	for cols < m.Cols {
		cols <<= 1
	}
	return cols * m.DTypeBytes
}

// PaddedBytes returns the allocation size using padded rows.
func (m MatrixConfig) PaddedBytes() int64 {
	return int64(m.Rows) * int64(m.PaddedRowBytes())
}

// Selection is the output of SelectMapping: the chosen MapID plus the
// placement consequences the runtime needs.
type Selection struct {
	// ID is the chosen PIM mapping.
	ID MapID
	// Partitioned reports that one matrix row exceeds the per-bank
	// share of a huge page, so the row is column-wise partitioned
	// across PUs (paper Fig. 10) and partial sums must be reduced by
	// the SoC after PIM computation.
	Partitioned bool
	// PartitionsPerRow is the number of PUs holding pieces of one
	// matrix row (1 when not partitioned).
	PartitionsPerRow int
	// RowsPerPass is how many matrix rows all PUs process together in
	// one all-bank pass (tile height): totalBanks * chunkRows /
	// PartitionsPerRow.
	RowsPerPass int
}

// SelectMapping is FACIL's user-level mapping selector (paper Fig. 9,
// generalized to both AiM- and HBM-PIM-style chunks). Given the matrix,
// memory-system and PIM configurations — all available to user software —
// it returns the MapID recorded in the page-table entries of the matrix's
// huge pages.
func SelectMapping(m MatrixConfig, mc MemoryConfig, chunk ChunkConfig) (Selection, error) {
	if err := m.Validate(); err != nil {
		return Selection{}, err
	}
	if err := mc.Validate(); err != nil {
		return Selection{}, err
	}
	if err := chunk.Validate(mc.Geometry); err != nil {
		return Selection{}, err
	}

	rowBytes := m.PaddedRowBytes()
	perBank := mc.BytesPerBank()

	sel := Selection{PartitionsPerRow: 1}
	if perBank < rowBytes {
		// A matrix row cannot fit into one bank's share of a huge
		// page: place the PU-changing bits at the MSB of the page
		// offset (MapID = max) and split each row across PUs.
		sel.ID = MaxMapID(mc)
		sel.Partitioned = true
		sel.PartitionsPerRow = rowBytes / perBank
	} else {
		sel.ID = MapID(dram.Log2(rowBytes / mc.Geometry.TransferBytes))
	}
	if min := MinMapID(mc, chunk); sel.ID < min {
		// Matrix rows smaller than a chunk still occupy a whole
		// chunk (input register granularity).
		sel.ID = min
	}
	sel.RowsPerPass = mc.Geometry.TotalBanks() * chunk.Rows / sel.PartitionsPerRow
	return sel, nil
}
