package tune

import (
	"math/rand"
	"testing"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/fault"
	"facil/internal/mapping"
)

// testSpecs returns the platform memory systems the tuner targets.
func testSpecs() []dram.Spec {
	return []dram.Spec{
		dram.JetsonOrinLPDDR5,
		dram.MacbookLPDDR5,
		dram.IdeaPadLPDDR5X,
		dram.IPhoneLPDDR5,
	}
}

func testSpace(t testing.TB, spec dram.Spec) *Space {
	t.Helper()
	mc := mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
	s, err := NewSpace(mc, mapping.AiMChunk(spec.Geometry))
	if err != nil {
		t.Fatalf("NewSpace(%s): %v", spec.Name, err)
	}
	return s
}

// testTrace captures a small canonical trace for estimator tests.
func testTrace(t testing.TB, spec dram.Spec, sampleBytes int64) (*Trace, mapping.Selection) {
	t.Helper()
	g := spec.Geometry
	mc := mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}
	chunk := mapping.AiMChunk(g)
	matrix := mapping.MatrixConfig{Rows: 2048, Cols: 2048, DTypeBytes: 2}
	sel, err := mapping.SelectMapping(matrix, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(g, TraceConfig{
		Matrix:       matrix,
		Streams:      sel.RowsPerPass,
		SampleBytes:  sampleBytes,
		DecodeWeight: 65,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, sel
}

func TestSpaceAllPlatforms(t *testing.T) {
	for _, spec := range testSpecs() {
		s := testSpace(t, spec)
		g := spec.Geometry
		if got, want := s.pageBits, 21-g.OffsetBits(); got != want {
			t.Errorf("%s: PageBits = %d, want %d", spec.Name, got, want)
		}
		wantRow := s.pageBits - g.ColumnBits() - g.BankBits() - g.RankBits() - g.ChannelBits()
		if got := s.pageRowBits; got != wantRow {
			t.Errorf("%s: PageRowBits = %d, want %d", spec.Name, got, wantRow)
		}
		if got := s.chunkPrefix; got != g.ColumnBits() {
			t.Errorf("%s: ChunkPrefixBits = %d, want %d (AiM chunk = whole row)", spec.Name, got, g.ColumnBits())
		}
	}
}

// TestSeedsMatchFamily pins that encoding a fixed MapID family member as
// a genome and rebuilding it yields a bit-identical translation — the
// generalized space is a strict superset of the family.
func TestSeedsMatchFamily(t *testing.T) {
	for _, spec := range testSpecs() {
		s := testSpace(t, spec)
		tab, err := mapping.NewTable(s.MC, s.Chunk)
		if err != nil {
			t.Fatal(err)
		}
		seeds, ids, err := s.Seeds()
		if err != nil {
			t.Fatalf("%s: Seeds: %v", spec.Name, err)
		}
		if len(seeds) == 0 {
			t.Fatalf("%s: empty seed family", spec.Name)
		}
		rng := rand.New(rand.NewSource(42))
		mask := uint64(1)<<uint(spec.Geometry.AddressBits()) - 1
		for i, seed := range seeds {
			built, err := s.Build(seed)
			if err != nil {
				t.Fatalf("%s: Build(seed %v): %v", spec.Name, ids[i], err)
			}
			want := tab.Lookup(ids[i])
			for probe := 0; probe < 2000; probe++ {
				pa := rng.Uint64() & mask
				ga, goff := built.Translate(pa)
				wa, woff := want.Translate(pa)
				if ga != wa || goff != woff {
					t.Fatalf("%s seed %v: Translate(%#x) = %v,%d, family gives %v,%d",
						spec.Name, ids[i], pa, ga, goff, wa, woff)
				}
			}
		}
	}
}

func TestValidateRejects(t *testing.T) {
	s := testSpace(t, dram.JetsonOrinLPDDR5)
	seeds, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	base := seeds[len(seeds)-1]

	mutate := func(fn func(g *Genome)) Genome {
		g := base.Clone()
		fn(&g)
		return g
	}
	cases := []struct {
		name string
		g    Genome
	}{
		{"short", Genome{Fields: base.Fields[:len(base.Fields)-1]}},
		{"offset kind", mutate(func(g *Genome) { g.Fields[len(g.Fields)-1] = addr.FieldOffset })},
		{"column above PU", mutate(func(g *Genome) {
			// Swap a chunk column bit with the top PU bit.
			g.Fields[0], g.Fields[len(g.Fields)-1] = g.Fields[len(g.Fields)-1], g.Fields[0]
		})},
		{"count mismatch", mutate(func(g *Genome) { g.Fields[len(g.Fields)-1] = addr.FieldBank })},
		{"duplicate XOR", mutate(func(g *Genome) {
			p := addr.XORPair{Target: addr.FieldBank, TargetBit: 0, RowBit: 0}
			g.XOR = []addr.XORPair{p, p}
		})},
		{"non-page row source", mutate(func(g *Genome) {
			g.XOR = []addr.XORPair{{Target: addr.FieldBank, TargetBit: 0, RowBit: s.pageRowBits}}
		})},
		{"XOR target out of range", mutate(func(g *Genome) {
			g.XOR = []addr.XORPair{{Target: addr.FieldChannel, TargetBit: 99, RowBit: 0}}
		})},
		{"XOR target rank", mutate(func(g *Genome) {
			g.XOR = []addr.XORPair{{Target: addr.FieldRank, TargetBit: 0, RowBit: 0}}
		})},
	}
	for _, tc := range cases {
		if err := s.Validate(tc.g); err == nil {
			t.Errorf("%s: Validate accepted an invalid genome", tc.name)
		}
	}
	if err := s.Validate(base); err != nil {
		t.Fatalf("baseline seed rejected: %v", err)
	}
}

// exhaustiveGenomes builds the property-test population for one space:
// the whole fixed family plus deterministic permutation+XOR mutants.
func exhaustiveGenomes(t *testing.T, s *Space) []Genome {
	t.Helper()
	genomes, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parent := genomes[0]
	for tries := 0; len(genomes) < 12 && tries < 1000; tries++ {
		g := mutate(s, rng, parent, 4)
		if s.Validate(g) != nil {
			continue
		}
		genomes = append(genomes, g)
	}
	return genomes
}

// TestGeneralizedBijectionExhaustive is the property test of the
// satellite: every generalized permutation+XOR mapping is a bijection
// over the full huge-page offset range, verified explicitly through
// Inverse (never by assuming the map is an involution) and through an
// independent injectivity check on the packed DRAM coordinates.
func TestGeneralizedBijectionExhaustive(t *testing.T) {
	for _, spec := range []dram.Spec{dram.JetsonOrinLPDDR5, dram.IPhoneLPDDR5} {
		s := testSpace(t, spec)
		g := spec.Geometry
		offBits := uint(g.OffsetBits())
		pageBursts := 1 << uint(s.pageBits)
		for _, genome := range exhaustiveGenomes(t, s) {
			m, err := s.Build(genome)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, genome.Describe(), err)
			}
			seen := make(map[dram.Addr]bool, pageBursts)
			// Every burst of the first huge page, plus the same offsets
			// in a higher page to exercise the row-MSB path.
			for _, pageBase := range []uint64{0, 3 << 21} {
				for b := 0; b < pageBursts; b++ {
					pa := pageBase | uint64(b)<<offBits
					a, off := m.Translate(pa)
					if !a.Valid(g) {
						t.Fatalf("%s %s: PA %#x -> invalid %v", spec.Name, genome.Describe(), pa, a)
					}
					if off != 0 {
						t.Fatalf("%s %s: PA %#x -> offset %d", spec.Name, genome.Describe(), pa, off)
					}
					if back := m.Inverse(a, off); back != pa {
						t.Fatalf("%s %s: PA %#x round-trips to %#x", spec.Name, genome.Describe(), pa, back)
					}
					if pageBase == 0 {
						if seen[a] {
							t.Fatalf("%s %s: DA %v hit twice within one page", spec.Name, genome.Describe(), a)
						}
						seen[a] = true
					}
				}
			}
			// Byte offsets within a burst stay the identity.
			for _, b := range []int{0, 1, pageBursts - 1} {
				for off := 0; off < g.TransferBytes; off++ {
					pa := uint64(b)<<offBits | uint64(off)
					a, gotOff := m.Translate(pa)
					if gotOff != off {
						t.Fatalf("%s %s: PA %#x -> offset %d, want %d", spec.Name, genome.Describe(), pa, gotOff, off)
					}
					if back := m.Inverse(a, gotOff); back != pa {
						t.Fatalf("%s %s: PA %#x round-trips to %#x", spec.Name, genome.Describe(), pa, back)
					}
				}
			}
		}
	}
}

// genomeFromFuzz derives a (possibly invalid) genome deterministically
// from fuzz-provided entropy: a seeded shuffle of a family member's
// permutable suffix plus up to two decoded XOR terms.
func genomeFromFuzz(s *Space, permSeed uint64, xorA, xorB uint16) (Genome, bool) {
	genomes, _, err := s.Seeds()
	if err != nil {
		return Genome{}, false
	}
	g := genomes[int(permSeed%uint64(len(genomes)))].Clone()
	lo := s.chunkPrefix
	x := permSeed
	for j := len(g.Fields) - 1; j > lo; j-- {
		x = fault.SplitMix64(x)
		k := lo + int(x%uint64(j-lo+1))
		g.Fields[j], g.Fields[k] = g.Fields[k], g.Fields[j]
	}
	decode := func(v uint16) (addr.XORPair, bool) {
		if v == 0 {
			return addr.XORPair{}, false
		}
		p := addr.XORPair{RowBit: int(v>>8) & 0x7}
		if v&1 == 0 {
			p.Target = addr.FieldBank
			p.TargetBit = int(v>>1) & 0x7
		} else {
			p.Target = addr.FieldChannel
			p.TargetBit = int(v>>1) & 0x7
		}
		return p, true
	}
	if p, ok := decode(xorA); ok {
		g.XOR = append(g.XOR, p)
	}
	if p, ok := decode(xorB); ok {
		g.XOR = append(g.XOR, p)
	}
	return g, true
}

// FuzzGeneralizedMapping mirrors the addr/mapping round-trip fuzzers for
// the generalized space: any genome the validator accepts must build a
// mapping that passes the bijection gate, round-trips fuzz-chosen
// physical addresses, and translates bit-identically to the estimator's
// packed LUT path.
func FuzzGeneralizedMapping(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), uint64(0))
	f.Add(uint64(2), uint16(0x0102), uint16(0x0203), uint64(1<<21))
	f.Add(uint64(99), uint16(0xffff), uint16(0x0001), uint64(123456789))
	spec := dram.JetsonOrinLPDDR5
	mc := mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
	space, err := NewSpace(mc, mapping.AiMChunk(spec.Geometry))
	if err != nil {
		f.Fatal(err)
	}
	tr, err := CaptureTrace(spec.Geometry, TraceConfig{
		Matrix:  mapping.MatrixConfig{Rows: 256, Cols: 2048, DTypeBytes: 2},
		Streams: 64, SampleBytes: 1 << 18,
	})
	if err != nil {
		f.Fatal(err)
	}
	ev, err := NewEvaluator(space, tr, spec.Timing, 0)
	if err != nil {
		f.Fatal(err)
	}
	g := spec.Geometry
	mask := uint64(1)<<uint(g.AddressBits()) - 1
	f.Fuzz(func(t *testing.T, permSeed uint64, xorA, xorB uint16, paProbe uint64) {
		genome, ok := genomeFromFuzz(space, permSeed, xorA, xorB)
		if !ok || space.Validate(genome) != nil {
			return
		}
		m, err := space.Build(genome)
		if err != nil {
			t.Fatalf("validated genome failed to build: %v", err)
		}
		if err := VerifyBijection(m, g, 32, permSeed|1); err != nil {
			t.Fatalf("%s: %v", genome.Describe(), err)
		}
		pa := paProbe & mask
		a, off := m.Translate(pa)
		if !a.Valid(g) {
			t.Fatalf("%s: PA %#x -> invalid %v", genome.Describe(), pa, a)
		}
		if back := m.Inverse(a, off); back != pa {
			t.Fatalf("%s: PA %#x round-trips to %#x", genome.Describe(), pa, back)
		}
		// Differential: the estimator's packed translation must agree
		// with the built mapping on the fuzz-chosen burst.
		if err := ev.prepare(genome); err != nil {
			t.Fatal(err)
		}
		code := uint32(pa >> uint(g.OffsetBits()))
		burstPA := pa &^ (uint64(g.TransferBytes) - 1)
		wa, _ := m.Translate(burstPA)
		gb, row, col, ch := ev.packedDA(code)
		wantGB := uint32(wa.Bank) | uint32(wa.Rank)<<uint(g.BankBits()) |
			uint32(wa.Channel)<<uint(g.BankBits()+g.RankBits())
		if gb != wantGB || row != uint32(wa.Row) || col != uint32(wa.Column) || ch != uint32(wa.Channel) {
			t.Fatalf("%s: packedDA(%#x) = gb%d row%d col%d ch%d, mapping gives %v",
				genome.Describe(), code, gb, row, col, ch, wa)
		}
	})
}
