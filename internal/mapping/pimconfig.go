// Package mapping implements FACIL's core contribution: the family of
// PIM-optimized PA-to-DA mappings parameterized by a small MapID, the
// user-level mapping selector (paper Fig. 9), and the construction of the
// concrete bit mappings consumed by the memory-controller frontend
// (paper Sec. IV-B, Fig. 8 and Fig. 10).
package mapping

import (
	"fmt"

	"facil/internal/dram"
)

// Style distinguishes the two near-bank PIM architectures the paper
// formulates mappings for.
type Style int

const (
	// StyleAiM is SK Hynix Accelerator-in-Memory: each processing unit
	// owns one bank, the input register holds a DRAM row of the input
	// vector and the output register holds one output element, so the
	// chunk dimension is (1, rowBytes/dtype) — e.g. (1, 1024) at FP16.
	StyleAiM Style = iota
	// StyleHBMPIM is Samsung HBM-PIM (FIMDRAM): two sets of 8 general
	// registers give a chunk dimension of (8, 128) at FP16.
	StyleHBMPIM
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleAiM:
		return "AiM"
	case StyleHBMPIM:
		return "HBM-PIM"
	default:
		return fmt.Sprintf("style(%d)", int(s))
	}
}

// ChunkConfig describes the basic unit of computation of one PIM
// processing unit in bytes (paper Sec. II-C). A chunk of dimension
// (Rows, Cols) elements occupies Rows * ColBytes bytes and must be placed
// contiguously within one DRAM row.
type ChunkConfig struct {
	// Style selects the bit-layout family (Sec. IV-B).
	Style Style
	// Rows is the chunk row dimension (output register height):
	// 1 for AiM, 8 for HBM-PIM.
	Rows int
	// ColBytes is the chunk column dimension in bytes (input register
	// width): the DRAM row size for AiM (2 KB), 256 B for HBM-PIM at
	// FP16.
	ColBytes int
}

// Validate checks the chunk against a DRAM geometry: the chunk footprint
// (Rows * ColBytes) must exactly fill one DRAM row so that the whole row
// buffer feeds the PU without fragmentation.
func (c ChunkConfig) Validate(g dram.Geometry) error {
	if c.Rows <= 0 || c.Rows&(c.Rows-1) != 0 {
		return fmt.Errorf("mapping: chunk Rows %d must be a positive power of two", c.Rows)
	}
	if c.ColBytes <= 0 || c.ColBytes&(c.ColBytes-1) != 0 {
		return fmt.Errorf("mapping: chunk ColBytes %d must be a positive power of two", c.ColBytes)
	}
	if c.ColBytes < g.TransferBytes {
		return fmt.Errorf("mapping: chunk ColBytes %d smaller than transfer size %d", c.ColBytes, g.TransferBytes)
	}
	if c.Rows*c.ColBytes != g.RowBytes {
		return fmt.Errorf("mapping: chunk footprint %d B must equal DRAM row %d B",
			c.Rows*c.ColBytes, g.RowBytes)
	}
	return nil
}

// ColElems returns the chunk column dimension in elements for a datatype.
func (c ChunkConfig) ColElems(dtypeBytes int) int {
	return c.ColBytes / dtypeBytes
}

// chunkColBits returns the number of column bits holding the chunk column
// dimension: log2(ColBytes / TransferBytes).
func (c ChunkConfig) chunkColBits(g dram.Geometry) int {
	return dram.Log2(c.ColBytes / g.TransferBytes)
}

// chunkRowBits returns log2(Rows), the column bits holding the chunk row
// dimension (0 for AiM).
func (c ChunkConfig) chunkRowBits() int {
	return dram.Log2(c.Rows)
}

// AiMChunk returns the AiM chunk for a geometry: (1, rowBytes).
func AiMChunk(g dram.Geometry) ChunkConfig {
	return ChunkConfig{Style: StyleAiM, Rows: 1, ColBytes: g.RowBytes}
}

// HBMPIMChunk returns the HBM-PIM chunk for a geometry: (8, rowBytes/8).
func HBMPIMChunk(g dram.Geometry) ChunkConfig {
	return ChunkConfig{Style: StyleHBMPIM, Rows: 8, ColBytes: g.RowBytes / 8}
}
