// Package dram implements a cycle-level DRAM device and memory-channel
// simulator for LPDDR5/LPDDR5X-class parts.
//
// The simulator operates at burst granularity: one simulator cycle is the
// time needed to move one data burst (TransferBytes, typically 32 B) across
// one channel's data bus. At LPDDR5-6400 with a 16-bit channel this is
// 2.5 ns. All JEDEC-style timing parameters are expressed in these burst
// cycles (see Timing), which keeps bandwidth arithmetic exact: a channel
// that issues one read per cycle runs at its peak bandwidth.
//
// The package provides
//
//   - Geometry and Spec: device organization and timing presets,
//   - Bank / Rank / Channel: open-row state machines with tRCD/tRP/tRAS/
//     tCCD/tRRD/tFAW/tWR/tRTP/refresh constraints,
//   - Controller: an FR-FCFS multi-channel memory controller operating on
//     already-translated DRAM addresses (address mapping lives in
//     internal/addr and internal/mapping),
//   - trace replay helpers used by the re-layout and GEMM-layout models.
package dram

import (
	"fmt"
	"math/bits"
)

// Geometry describes the physical organization of one memory system
// (all channels included).
type Geometry struct {
	// Channels is the number of independent channels. For LPDDR5 each
	// channel is 16 bits wide; a 256-bit bus is 16 channels.
	Channels int
	// RanksPerChannel is the number of ranks sharing one channel bus.
	RanksPerChannel int
	// BanksPerRank is the number of banks in one rank (LPDDR5: 16 in
	// BG mode, 8 in 8-bank mode).
	BanksPerRank int
	// Rows is the number of DRAM rows per bank.
	Rows int
	// RowBytes is the size of one DRAM row (page) in bytes, e.g. 2048.
	RowBytes int
	// TransferBytes is the size of one data burst in bytes (channel
	// width times burst length), e.g. 32 for LPDDR5 BL16 x16.
	TransferBytes int
}

// Validate reports an error if any field is non-positive or not a power of
// two where the address-mapping machinery requires one. Errors wrap
// ErrConfig, so callers can recover from configuration mistakes instead
// of crashing.
func (g Geometry) Validate() error {
	type field struct {
		name string
		v    int
		pow2 bool
	}
	fields := []field{
		{"Channels", g.Channels, true},
		{"RanksPerChannel", g.RanksPerChannel, true},
		{"BanksPerRank", g.BanksPerRank, true},
		{"Rows", g.Rows, true},
		{"RowBytes", g.RowBytes, true},
		{"TransferBytes", g.TransferBytes, true},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("%w: geometry field %s must be positive, got %d", ErrConfig, f.name, f.v)
		}
		if f.pow2 && f.v&(f.v-1) != 0 {
			return fmt.Errorf("%w: geometry field %s must be a power of two, got %d", ErrConfig, f.name, f.v)
		}
	}
	if g.TransferBytes > g.RowBytes {
		return fmt.Errorf("%w: TransferBytes %d exceeds RowBytes %d", ErrConfig, g.TransferBytes, g.RowBytes)
	}
	return nil
}

// TotalBanks returns the number of banks across all channels and ranks.
func (g Geometry) TotalBanks() int {
	return g.Channels * g.RanksPerChannel * g.BanksPerRank
}

// ColumnsPerRow returns the number of bursts per DRAM row.
func (g Geometry) ColumnsPerRow() int {
	return g.RowBytes / g.TransferBytes
}

// CapacityBytes returns the total capacity of the memory system.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Channels) * int64(g.RanksPerChannel) * int64(g.BanksPerRank) *
		int64(g.Rows) * int64(g.RowBytes)
}

// ChannelBits, RankBits, BankBits, RowBits, ColumnBits and OffsetBits report
// the number of physical-address bits consumed by each DRAM coordinate.
func (g Geometry) ChannelBits() int { return Log2(g.Channels) }

// RankBits returns log2(RanksPerChannel).
func (g Geometry) RankBits() int { return Log2(g.RanksPerChannel) }

// BankBits returns log2(BanksPerRank).
func (g Geometry) BankBits() int { return Log2(g.BanksPerRank) }

// RowBits returns log2(Rows).
func (g Geometry) RowBits() int { return Log2(g.Rows) }

// ColumnBits returns log2(ColumnsPerRow), the number of burst-index bits.
func (g Geometry) ColumnBits() int { return Log2(g.ColumnsPerRow()) }

// OffsetBits returns log2(TransferBytes), the byte-within-burst bits.
func (g Geometry) OffsetBits() int { return Log2(g.TransferBytes) }

// AddressBits returns the total number of physical-address bits covered by
// the geometry (log2 of capacity).
func (g Geometry) AddressBits() int {
	return g.ChannelBits() + g.RankBits() + g.BankBits() + g.RowBits() +
		g.ColumnBits() + g.OffsetBits()
}

// Log2 returns the floor base-2 logarithm of v, and 0 for v < 1. It is
// total: power-of-two-ness is a Validate concern (every constructor and
// the controller validate before use), not a reason to crash address
// arithmetic. The mapping layer's bit budgets use it too.
func Log2(v int) int { return bits.Len(uint(max(v, 1))) - 1 }

// Addr identifies one burst-sized location inside a memory system.
// Column is a burst index within the row ([0, ColumnsPerRow)).
type Addr struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// Valid reports whether the address is inside the geometry.
func (a Addr) Valid(g Geometry) bool {
	return a.Channel >= 0 && a.Channel < g.Channels &&
		a.Rank >= 0 && a.Rank < g.RanksPerChannel &&
		a.Bank >= 0 && a.Bank < g.BanksPerRank &&
		a.Row >= 0 && a.Row < g.Rows &&
		a.Column >= 0 && a.Column < g.ColumnsPerRow()
}

// String renders the address as ch/rk/ba/row/col.
func (a Addr) String() string {
	return fmt.Sprintf("ch%d rk%d ba%d row%d col%d", a.Channel, a.Rank, a.Bank, a.Row, a.Column)
}

// GlobalBank returns a dense index identifying the bank across the whole
// system: ((channel*ranks)+rank)*banks + bank.
func (a Addr) GlobalBank(g Geometry) int {
	return (a.Channel*g.RanksPerChannel+a.Rank)*g.BanksPerRank + a.Bank
}
