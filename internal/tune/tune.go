// Package tune implements the mapping auto-tuner: a design-space
// exploration (DSE) engine over generalized PA-to-DA mappings.
//
// The paper's select_mapping hand-picks from the fixed MapID family —
// mappings that keep the huge-page offset bits in the canonical
// column/row/PU order and only slide the PU-changing bits up and down.
// This package searches a strict superset of that family: arbitrary
// permutations of the huge-page offset bits (above the byte-within-burst
// offset) plus XOR bank/channel hashing terms over internal/addr's
// HashedMapping, constrained just enough to stay PIM-usable (the chunk
// column bits stay contiguous at the bottom and every column bit sits
// below every PU-changing bit, so lock-step all-bank execution still
// sees whole chunks).
//
// The engine is a two-tier evaluator. Tier one captures one canonical
// burst-address trace per workload (a GEMV decode scan plus a GEMM
// prefill tile walk, see Trace) and scores each candidate with a
// lightweight replay cost model (Evaluator): a per-bank open-row /
// activation / conflict estimator with no scheduler and no event loop,
// value-typed, zero heap allocations per candidate in steady state.
// Candidates are deduplicated through parallel.Flight and fanned out
// with parallel.Sweep. Tier two re-validates only the surviving Pareto
// front (estimated latency vs. re-layout cost) with the full
// bit-identical dram.Channel scheduler (SimScore). Every candidate must
// pass the PA-DA bijection property check (VerifyBijection) before it
// is scored.
package tune

import (
	"fmt"
	"math/bits"

	"facil/internal/mapping"
)

// Space describes the searchable design space for one platform: the
// memory configuration (geometry + huge page) and PIM chunk shape, plus
// the derived bit-budget every Genome must satisfy. A Space is immutable
// and safe for concurrent use.
type Space struct {
	// MC is the memory-system configuration the space is built for.
	MC mapping.MemoryConfig
	// Chunk is the PIM chunk configuration constraining valid layouts.
	Chunk mapping.ChunkConfig

	pageBits    int // huge-page offset bits above the burst offset
	chunkPrefix int // column bits pinned to the bottom (chunk column dim)
	colBits     int
	bankBits    int
	rankBits    int
	chBits      int
	puBits      int // bankBits + rankBits + chBits
	pageRowBits int // row bits inside the page offset: the only legal XOR sources
}

// NewSpace validates the configuration and derives the bit budget.
func NewSpace(mc mapping.MemoryConfig, chunk mapping.ChunkConfig) (*Space, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	g := mc.Geometry
	if err := chunk.Validate(g); err != nil {
		return nil, err
	}
	s := &Space{
		MC:       mc,
		Chunk:    chunk,
		colBits:  g.ColumnBits(),
		bankBits: g.BankBits(),
		rankBits: g.RankBits(),
		chBits:   g.ChannelBits(),
	}
	s.puBits = s.bankBits + s.rankBits + s.chBits
	s.pageBits = mc.HugePageBits() - g.OffsetBits()
	s.pageRowBits = s.pageBits - s.colBits - s.puBits
	s.chunkPrefix = bits.Len(uint(chunk.ColBytes/g.TransferBytes)) - 1
	if s.pageRowBits < 0 {
		return nil, fmt.Errorf("tune: huge page (%d bits above burst) cannot hold column (%d) + PU (%d) bits",
			s.pageBits, s.colBits, s.puBits)
	}
	if s.pageRowBits > g.RowBits() {
		return nil, fmt.Errorf("tune: geometry has %d row bits, page layout needs %d", g.RowBits(), s.pageRowBits)
	}
	// The estimator packs the per-page-bit DA contribution into a uint32
	// and splits the page offset into two 8/(pageBits-8)-bit LUT halves.
	if s.pageBits > 24 {
		return nil, fmt.Errorf("tune: page offset of %d bits exceeds the 24-bit estimator budget", s.pageBits)
	}
	if s.colBits+s.puBits+s.pageRowBits > 32 {
		return nil, fmt.Errorf("tune: packed DA of %d bits exceeds 32", s.colBits+s.puBits+s.pageRowBits)
	}
	return s, nil
}
