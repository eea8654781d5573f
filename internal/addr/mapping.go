// Package addr implements configurable physical-address-to-DRAM-address
// (PA-to-DA) bit mappings.
//
// A Mapping assigns every physical-address bit to one DRAM coordinate
// (channel, rank, bank, row, column or byte-offset-within-burst). Mappings
// are described as an ordered list of contiguous bit segments from LSB to
// MSB, mirroring how memory-controller frontends are specified (e.g. the
// conventional "row:rank:column:bank:channel" scheme of the paper, written
// MSB-to-LSB).
//
// The FACIL-specific PIM-optimized mappings, which permute only the huge-
// page offset bits, are built on top of this package by internal/mapping.
package addr

import (
	"fmt"
	"strings"

	"facil/internal/dram"
)

// FieldKind identifies one DRAM coordinate.
type FieldKind int

// DRAM coordinate kinds.
const (
	FieldOffset FieldKind = iota // byte within burst
	FieldColumn                  // burst within row
	FieldBank
	FieldRank
	FieldChannel
	FieldRow
	numFields
)

// String returns the lower-case field name used in layout strings.
func (k FieldKind) String() string {
	switch k {
	case FieldOffset:
		return "offset"
	case FieldColumn:
		return "column"
	case FieldBank:
		return "bank"
	case FieldRank:
		return "rank"
	case FieldChannel:
		return "channel"
	case FieldRow:
		return "row"
	default:
		return fmt.Sprintf("field(%d)", int(k))
	}
}

// parseFieldKind maps a layout token to its kind.
func parseFieldKind(s string) (FieldKind, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "offset":
		return FieldOffset, nil
	case "column", "col":
		return FieldColumn, nil
	case "bank", "ba":
		return FieldBank, nil
	case "rank", "rk":
		return FieldRank, nil
	case "channel", "ch":
		return FieldChannel, nil
	case "row":
		return FieldRow, nil
	default:
		return 0, fmt.Errorf("addr: unknown field %q", s)
	}
}

// Segment is a contiguous run of physical-address bits assigned to one
// DRAM coordinate. Bits within a segment keep their relative order.
type Segment struct {
	Kind FieldKind
	Bits int
}

// segPlan is a compiled segment: where it sits in the PA and which bits of
// its field it provides.
type segPlan struct {
	kind       FieldKind
	paShift    uint // position of segment LSB in the physical address
	fieldShift uint // position of segment LSB within the field value
	mask       uint64
}

// Translator is a PA-to-DA mapping seen through its translation and
// inverse: what a request stream, a replay or a bijection check needs
// of it. Mapping and HashedMapping satisfy it.
type Translator interface {
	Translate(pa uint64) (dram.Addr, int)
	Inverse(a dram.Addr, offset int) uint64
}

// Mapping is a complete, validated PA-to-DA bit assignment for a geometry.
type Mapping struct {
	geom dram.Geometry
	// segs is the LSB-to-MSB segment list as provided.
	segs  []Segment
	plans []segPlan
	name  string
}

// fieldBits returns the number of address bits each field needs.
func fieldBits(g dram.Geometry, k FieldKind) int {
	switch k {
	case FieldOffset:
		return g.OffsetBits()
	case FieldColumn:
		return g.ColumnBits()
	case FieldBank:
		return g.BankBits()
	case FieldRank:
		return g.RankBits()
	case FieldChannel:
		return g.ChannelBits()
	case FieldRow:
		return g.RowBits()
	}
	return 0
}

// New builds a Mapping from an LSB-to-MSB segment list. The segments must
// cover each field with exactly the number of bits the geometry requires.
// Fields may be split across multiple segments (as FACIL does with row
// bits); earlier segments provide lower-order field bits.
func New(g dram.Geometry, name string, segs []Segment) (*Mapping, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &Mapping{geom: g, name: name, segs: append([]Segment(nil), segs...)}
	var got [numFields]int
	paShift := uint(0)
	for _, s := range segs {
		if s.Bits < 0 {
			return nil, fmt.Errorf("addr: mapping %q: negative segment width for %s", name, s.Kind)
		}
		if s.Bits == 0 {
			continue
		}
		m.plans = append(m.plans, segPlan{
			kind:       s.Kind,
			paShift:    paShift,
			fieldShift: uint(got[s.Kind]),
			mask:       (uint64(1) << s.Bits) - 1,
		})
		got[s.Kind] += s.Bits
		paShift += uint(s.Bits)
	}
	for k := FieldKind(0); k < numFields; k++ {
		want := fieldBits(g, k)
		if got[k] != want {
			return nil, fmt.Errorf("addr: mapping %q: field %s has %d bits, geometry needs %d",
				name, k, got[k], want)
		}
	}
	if int(paShift) != g.AddressBits() {
		return nil, fmt.Errorf("addr: mapping %q covers %d bits, geometry has %d",
			name, paShift, g.AddressBits())
	}
	return m, nil
}

// FromLayout builds a mapping from an MSB-to-LSB colon-separated layout
// such as "row:rank:column:bank:channel". The byte-offset field is
// appended implicitly at the LSB end if not mentioned. Each field named
// receives all of its bits as one contiguous run.
func FromLayout(g dram.Geometry, layout string) (*Mapping, error) {
	tokens := strings.Split(layout, ":")
	var kinds []FieldKind
	seenOffset := false
	for _, tok := range tokens {
		k, err := parseFieldKind(tok)
		if err != nil {
			return nil, err
		}
		if k == FieldOffset {
			seenOffset = true
		}
		kinds = append(kinds, k)
	}
	if !seenOffset {
		kinds = append(kinds, FieldOffset)
	}
	// Reverse MSB-to-LSB into LSB-to-MSB segments.
	segs := make([]Segment, 0, len(kinds))
	for i := len(kinds) - 1; i >= 0; i-- {
		segs = append(segs, Segment{Kind: kinds[i], Bits: fieldBits(g, kinds[i])})
	}
	return New(g, layout, segs)
}

// Name returns the mapping's descriptive name.
func (m *Mapping) Name() string { return m.name }

// Geometry returns the geometry this mapping was built for.
func (m *Mapping) Geometry() dram.Geometry { return m.geom }

// Segments returns a copy of the LSB-to-MSB segment list.
func (m *Mapping) Segments() []Segment {
	return append([]Segment(nil), m.segs...)
}

// Translate converts a physical byte address into a DRAM address plus the
// byte offset within the burst.
func (m *Mapping) Translate(pa uint64) (dram.Addr, int) {
	var f [numFields]uint64
	for i := range m.plans {
		p := &m.plans[i]
		f[p.kind] |= ((pa >> p.paShift) & p.mask) << p.fieldShift
	}
	return dram.Addr{
		Channel: int(f[FieldChannel]),
		Rank:    int(f[FieldRank]),
		Bank:    int(f[FieldBank]),
		Row:     int(f[FieldRow]),
		Column:  int(f[FieldColumn]),
	}, int(f[FieldOffset])
}

// Inverse converts a DRAM address plus burst byte offset back to the
// physical address. It is the exact inverse of Translate.
func (m *Mapping) Inverse(a dram.Addr, offset int) uint64 {
	var f [numFields]uint64
	f[FieldChannel] = uint64(a.Channel)
	f[FieldRank] = uint64(a.Rank)
	f[FieldBank] = uint64(a.Bank)
	f[FieldRow] = uint64(a.Row)
	f[FieldColumn] = uint64(a.Column)
	f[FieldOffset] = uint64(offset)
	var pa uint64
	for i := range m.plans {
		p := &m.plans[i]
		pa |= ((f[p.kind] >> p.fieldShift) & p.mask) << p.paShift
	}
	return pa
}

// String renders the mapping MSB-to-LSB with bit widths, e.g.
// "row[22]:rank[1]:column[6]:bank[4]:channel[4]:offset[5]". Adjacent
// segments of the same field are merged for readability.
func (m *Mapping) String() string {
	parts := make([]string, 0, len(m.segs))
	for i := len(m.segs) - 1; i >= 0; i-- {
		s := m.segs[i]
		if s.Bits == 0 {
			continue
		}
		bits := s.Bits
		for i > 0 && m.segs[i-1].Kind == s.Kind {
			i--
			bits += m.segs[i].Bits
		}
		parts = append(parts, fmt.Sprintf("%s[%d]", s.Kind, bits))
	}
	return strings.Join(parts, ":")
}

// Conventional returns the paper's default SoC mapping,
// row:rank:column:bank:channel, which interleaves consecutive bursts
// across channels then banks and achieves near-peak sequential bandwidth.
func Conventional(g dram.Geometry) (*Mapping, error) {
	return FromLayout(g, "row:rank:column:bank:channel")
}
