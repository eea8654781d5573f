package addr

import (
	"fmt"

	"facil/internal/dram"
)

// XOR bank hashing. Production memory controllers commonly XOR the bank
// (and channel) index bits with row bits so that pathological strides do
// not concentrate on one bank — the addressing behaviour the DRAMA study
// the paper cites reverse-engineers. FACIL's conventional mapping can
// carry such hashing; the PIM mappings must not, because lock-step
// placement depends on untangled PU-changing bits.

// XORPair hashes one target-field bit with one row bit:
// target[TargetBit] ^= row[RowBit].
type XORPair struct {
	// Target is the hashed field (FieldBank or FieldChannel).
	Target FieldKind
	// TargetBit is the bit index within the target field.
	TargetBit int
	// RowBit is the row bit folded in.
	RowBit int
}

// HashedMapping decorates a base mapping with XOR bank/channel hashing.
// Translate and Inverse remain exact inverses: the hash depends only on
// row bits, which it never modifies, and XOR is self-inverse.
type HashedMapping struct {
	base  *Mapping
	pairs []XORPair
}

// WithXOR wraps a mapping with hash pairs.
func WithXOR(m *Mapping, pairs []XORPair) (*HashedMapping, error) {
	g := m.Geometry()
	for _, p := range pairs {
		switch p.Target {
		case FieldBank:
			if p.TargetBit < 0 || p.TargetBit >= g.BankBits() {
				return nil, fmt.Errorf("addr: xor target bank bit %d out of range", p.TargetBit)
			}
		case FieldChannel:
			if p.TargetBit < 0 || p.TargetBit >= g.ChannelBits() {
				return nil, fmt.Errorf("addr: xor target channel bit %d out of range", p.TargetBit)
			}
		default:
			return nil, fmt.Errorf("addr: xor target %v not supported (bank or channel only)", p.Target)
		}
		if p.RowBit < 0 || p.RowBit >= g.RowBits() {
			return nil, fmt.Errorf("addr: xor row bit %d out of range", p.RowBit)
		}
	}
	return &HashedMapping{base: m, pairs: append([]XORPair(nil), pairs...)}, nil
}

// apply folds the row bits into the interleave fields (self-inverse).
func (h *HashedMapping) apply(a dram.Addr) dram.Addr {
	for _, p := range h.pairs {
		bit := (a.Row >> p.RowBit) & 1
		switch p.Target {
		case FieldBank:
			a.Bank ^= bit << p.TargetBit
		case FieldChannel:
			a.Channel ^= bit << p.TargetBit
		}
	}
	return a
}

// Translate maps a physical address to a DRAM address with hashing.
func (h *HashedMapping) Translate(pa uint64) (dram.Addr, int) {
	a, off := h.base.Translate(pa)
	return h.apply(a), off
}

// Inverse converts a hashed DRAM address back to the physical address.
func (h *HashedMapping) Inverse(a dram.Addr, offset int) uint64 {
	return h.base.Inverse(h.apply(a), offset)
}
