package addr_test

import (
	"math/rand"
	"testing"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/fault"
	"facil/internal/mapping"
	"facil/internal/soc"
	"facil/internal/tune"
)

// oracleCase is a built mapping beside the segment list and hash terms
// it was built from: what the per-bit oracle translates with.
type oracleCase struct {
	name  string
	geo   dram.Geometry
	m     addr.Translator
	segs  []addr.Segment
	pairs []addr.XORPair
}

// oracleTranslate walks the PA one bit at a time through the segment
// list, each bit landing at the next free bit of its field, then folds
// the hash terms in: the per-segment definition New's merged plans must
// reproduce.
func oracleTranslate(segs []addr.Segment, pairs []addr.XORPair, pa uint64) (dram.Addr, int) {
	var f, n [addr.FieldRow + 1]uint64
	for _, s := range segs {
		for b := 0; b < s.Bits; b++ {
			f[s.Kind] |= (pa & 1) << n[s.Kind]
			n[s.Kind]++
			pa >>= 1
		}
	}
	a := dram.Addr{
		Channel: int(f[addr.FieldChannel]),
		Rank:    int(f[addr.FieldRank]),
		Bank:    int(f[addr.FieldBank]),
		Row:     int(f[addr.FieldRow]),
		Column:  int(f[addr.FieldColumn]),
	}
	return oracleHash(a, pairs), int(f[addr.FieldOffset])
}

// oracleHash applies the XOR terms (self-inverse).
func oracleHash(a dram.Addr, pairs []addr.XORPair) dram.Addr {
	for _, p := range pairs {
		bit := (a.Row >> p.RowBit) & 1
		if p.Target == addr.FieldBank {
			a.Bank ^= bit << p.TargetBit
		} else {
			a.Channel ^= bit << p.TargetBit
		}
	}
	return a
}

// oracleInverse rebuilds the PA bit by bit from the unhashed fields.
func oracleInverse(segs []addr.Segment, pairs []addr.XORPair, a dram.Addr, off int) uint64 {
	a = oracleHash(a, pairs)
	f := [addr.FieldRow + 1]uint64{
		addr.FieldOffset:  uint64(off),
		addr.FieldColumn:  uint64(a.Column),
		addr.FieldBank:    uint64(a.Bank),
		addr.FieldRank:    uint64(a.Rank),
		addr.FieldChannel: uint64(a.Channel),
		addr.FieldRow:     uint64(a.Row),
	}
	var pa uint64
	pos := uint(0)
	for _, s := range segs {
		for b := 0; b < s.Bits; b++ {
			pa |= (f[s.Kind] & 1) << pos
			f[s.Kind] >>= 1
			pos++
		}
	}
	return pa
}

// oracleCases builds, for every platform, the conventional mapping, the
// whole PIM MapID family, and tuned genomes with and without XOR terms:
// shuffled page layouts whose one-bit segments New merges into runs.
func oracleCases(t testing.TB) []oracleCase {
	t.Helper()
	var out []oracleCase
	rng := rand.New(rand.NewSource(17))
	for _, p := range soc.All() {
		g := p.Spec.Geometry
		conv, err := addr.Conventional(g)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleCase{p.Name + " conventional", g, conv, conv.Segments(), nil})
		mc := mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}
		tab, err := mapping.NewTable(mc, mapping.AiMChunk(g))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := tab.Range()
		for id := lo; id <= hi; id++ {
			m := tab.Lookup(id)
			out = append(out, oracleCase{p.Name + " " + m.Name(), g, m, m.Segments(), nil})
		}

		space, err := tune.NewSpace(mc, mapping.AiMChunk(g))
		if err != nil {
			t.Fatal(err)
		}
		seeds, _, err := space.Seeds()
		if err != nil {
			t.Fatal(err)
		}
		for added := 0; added < 16; {
			// Keep the columns below the PU bits (the chunk rule), shuffle
			// the PU bits among themselves and drop the page row bits in
			// at random places; Validate rejects a row bit placed inside
			// the chunk column prefix.
			var cols, pus []addr.FieldKind
			pageRows := 0
			for _, k := range seeds[0].Fields {
				switch k {
				case addr.FieldRow:
					pageRows++
				case addr.FieldColumn:
					cols = append(cols, k)
				default:
					pus = append(pus, k)
				}
			}
			rng.Shuffle(len(pus), func(i, j int) { pus[i], pus[j] = pus[j], pus[i] })
			var gn tune.Genome
			gn.Fields = append(append(gn.Fields, cols...), pus...)
			for r := 0; r < pageRows; r++ {
				i := rng.Intn(len(gn.Fields) + 1)
				gn.Fields = append(gn.Fields[:i], append([]addr.FieldKind{addr.FieldRow}, gn.Fields[i:]...)...)
			}
			if added%2 == 1 && pageRows > 0 {
				gn.XOR = append(gn.XOR, addr.XORPair{Target: addr.FieldBank, TargetBit: rng.Intn(g.BankBits()), RowBit: rng.Intn(pageRows)})
				if g.ChannelBits() > 0 {
					gn.XOR = append(gn.XOR, addr.XORPair{Target: addr.FieldChannel, TargetBit: rng.Intn(g.ChannelBits()), RowBit: rng.Intn(pageRows)})
				}
			}
			if space.Validate(gn) != nil {
				continue
			}
			m, err := space.Build(gn)
			if err != nil {
				t.Fatal(err)
			}
			segs := []addr.Segment{{Kind: addr.FieldOffset, Bits: g.OffsetBits()}}
			for _, k := range gn.Fields {
				segs = append(segs, addr.Segment{Kind: k, Bits: 1})
			}
			segs = append(segs, addr.Segment{Kind: addr.FieldRow, Bits: g.RowBits() - pageRows})
			out = append(out, oracleCase{p.Name + " tuned " + gn.Describe(), g, m, segs, gn.XOR})
			added++
		}
	}
	return out
}

// FuzzTranslateOracle holds Translate and Inverse of the merged-plan
// mappings to the per-bit oracle: each input seeds 64 random physical
// addresses, checked under every platform's conventional mapping, MapID
// family and a set of tuned genomes.
func FuzzTranslateOracle(f *testing.F) {
	cases := oracleCases(f)
	for _, s := range []uint64{0, 1, 0x5eed, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for i := uint64(0); i < 64; i++ {
			x := fault.SplitMix64(seed + i)
			for _, c := range cases {
				pa := x % uint64(c.geo.CapacityBytes())
				got, off := c.m.Translate(pa)
				want, wantOff := oracleTranslate(c.segs, c.pairs, pa)
				if got != want || off != wantOff {
					t.Fatalf("%s: Translate(%#x) = %v+%d, oracle %v+%d", c.name, pa, got, off, want, wantOff)
				}
				if back, want := c.m.Inverse(got, off), oracleInverse(c.segs, c.pairs, got, off); back != want || back != pa {
					t.Fatalf("%s: Inverse(%v+%d) = %#x, oracle %#x, want %#x", c.name, got, off, back, want, pa)
				}
			}
		}
	})
}
