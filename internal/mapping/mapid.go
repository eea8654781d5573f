package mapping

import (
	"fmt"

	"facil/internal/dram"
)

// MapID identifies one PA-to-DA mapping in FACIL's mapping family.
//
// Definition used throughout this repository: MapID is the number of
// physical-address bits placed below the PU-changing bits (bank, rank,
// channel) inside the huge-page offset, excluding the byte-within-burst
// offset bits. Equivalently, it is log2 of the number of bytes that one
// processing unit receives contiguously before the stream moves to the
// next PU, divided by the DRAM transfer size.
//
// This makes the paper's maximum-MapID formula exact:
//
//	max(MapID) = log2( hugePageSize / (totalBankCount * transferBytes) )
//
// (Sec. IV-B). The paper's prose definitions ("bits between the PU-changing
// bits and the chunk column bits" for AiM) differ from its own formula by
// the constant chunk-column bit count; we adopt the formula's convention
// (the tests pin the prose variant in TestRowBitsBelowPU).
//
// MapID 0 is reserved for the conventional mapping.
type MapID int

// ConventionalMapID marks a page using the SoC's default mapping.
const ConventionalMapID MapID = 0

// IsConventional reports whether the MapID selects the default mapping.
func (m MapID) IsConventional() bool { return m == ConventionalMapID }

// String renders the MapID.
func (m MapID) String() string {
	if m.IsConventional() {
		return "MapID(conv)"
	}
	return fmt.Sprintf("MapID(%d)", int(m))
}

// MemoryConfig is the memory-system half of the mapping-selection inputs:
// geometry plus the OS huge-page size.
type MemoryConfig struct {
	Geometry      dram.Geometry
	HugePageBytes int
}

// Validate checks the configuration.
func (mc MemoryConfig) Validate() error {
	if err := mc.Geometry.Validate(); err != nil {
		return err
	}
	if mc.HugePageBytes <= 0 || mc.HugePageBytes&(mc.HugePageBytes-1) != 0 {
		return fmt.Errorf("mapping: huge page size %d must be a positive power of two", mc.HugePageBytes)
	}
	min := mc.Geometry.TotalBanks() * mc.Geometry.TransferBytes
	if mc.HugePageBytes < min {
		return fmt.Errorf("mapping: huge page %d B cannot hold one transfer per bank (%d B)",
			mc.HugePageBytes, min)
	}
	return nil
}

// HugePageBits returns log2 of the huge page size (21 for 2 MB pages).
func (mc MemoryConfig) HugePageBits() int { return dram.Log2(mc.HugePageBytes) }

// BytesPerBank returns how much of one huge page each bank receives
// ("memory_per_bank" in the paper's Fig. 9 pseudocode).
func (mc MemoryConfig) BytesPerBank() int {
	return mc.HugePageBytes / mc.Geometry.TotalBanks()
}

// PUChangingBits returns the number of interleaving bits (bank+rank+
// channel), i.e. log2(total bank count).
func (mc MemoryConfig) PUChangingBits() int {
	g := mc.Geometry
	return g.BankBits() + g.RankBits() + g.ChannelBits()
}

// MaxMapID evaluates the paper's formula:
// log2(hugePageSize / (totalBankCount * transferBytes)).
func MaxMapID(mc MemoryConfig) MapID {
	return MapID(dram.Log2(mc.HugePageBytes / (mc.Geometry.TotalBanks() * mc.Geometry.TransferBytes)))
}

// MinMapID returns the smallest PIM-usable MapID for a chunk: every bit of
// the chunk footprint (column-low plus chunk-row bits) must sit below the
// PU-changing bits.
func MinMapID(mc MemoryConfig, chunk ChunkConfig) MapID {
	return MapID(chunk.chunkColBits(mc.Geometry) + chunk.chunkRowBits())
}

// MapIDCount returns how many distinct PIM mappings the memory controller
// must support for a chunk configuration (excluding the conventional one).
func MapIDCount(mc MemoryConfig, chunk ChunkConfig) int {
	n := int(MaxMapID(mc)) - int(MinMapID(mc, chunk)) + 1
	if n < 0 {
		return 0
	}
	return n
}

// MapIDBits returns the number of PTE bits needed to encode every
// supported mapping plus the conventional one.
func MapIDBits(mc MemoryConfig, chunk ChunkConfig) int {
	n := MapIDCount(mc, chunk) + 1 // + conventional
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	return bits
}
