package tune

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"facil/internal/dram"
)

// TestEstimatorMatchesMapping differentially checks the LUT translation
// path against the built addr mapping for every trace code of a set of
// random genomes — the estimator must model exactly the mapping the
// scheduler would see.
func TestEstimatorMatchesMapping(t *testing.T) {
	for _, spec := range []dram.Spec{dram.JetsonOrinLPDDR5, dram.IPhoneLPDDR5} {
		s := testSpace(t, spec)
		tr, _ := testTrace(t, spec, 1<<19)
		ev, err := NewEvaluator(s, tr, spec.Timing, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Geometry
		offBits := uint(g.OffsetBits())
		for _, genome := range exhaustiveGenomes(t, s) {
			m, err := s.Build(genome)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.prepare(genome); err != nil {
				t.Fatal(err)
			}
			for _, code := range tr.Codes[:4096] {
				wa, _ := m.Translate(uint64(code) << offBits)
				gb, row, col, ch := ev.packedDA(code)
				wantGB := uint32(wa.Bank) | uint32(wa.Rank)<<uint(g.BankBits()) |
					uint32(wa.Channel)<<uint(g.BankBits()+g.RankBits())
				if gb != wantGB || row != uint32(wa.Row) || col != uint32(wa.Column) || ch != uint32(wa.Channel) {
					t.Fatalf("%s %s: packedDA(%#x) = gb%d row%d col%d ch%d, mapping gives %v",
						spec.Name, genome.Describe(), code, gb, row, col, ch, wa)
				}
			}
		}
	}
}

// TestEstimatorZeroAllocs is the CI alloc gate of the tentpole: scoring
// a candidate in steady state must not touch the heap.
func TestEstimatorZeroAllocs(t *testing.T) {
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(t, spec)
	tr, _ := testTrace(t, spec, 1<<19)
	ev, err := NewEvaluator(s, tr, spec.Timing, 4096)
	if err != nil {
		t.Fatal(err)
	}
	seeds, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.SetBaseline(seeds[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.Score(seeds[i%len(seeds)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("estimator hot loop allocates %.1f times per candidate, want 0", allocs)
	}
}

// TestEstimatorMovedFrac pins the re-layout axis: identical mapping
// moves nothing, any differing linear map moves 1 - 2^-rank of the
// difference (>= half the bytes as soon as one bit assignment differs).
func TestEstimatorMovedFrac(t *testing.T) {
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(t, spec)
	tr, _ := testTrace(t, spec, 1<<18)
	ev, err := NewEvaluator(s, tr, spec.Timing, 1024)
	if err != nil {
		t.Fatal(err)
	}
	seeds, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.SetBaseline(seeds[0]); err != nil {
		t.Fatal(err)
	}
	same, err := ev.Score(seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	if same.MovedFrac != 0 {
		t.Fatalf("identical mapping reports MovedFrac %v, want 0", same.MovedFrac)
	}
	other, err := ev.Score(seeds[len(seeds)-1])
	if err != nil {
		t.Fatal(err)
	}
	if other.MovedFrac < 0.5 || other.MovedFrac > 1 {
		t.Fatalf("differing mapping reports MovedFrac %v, want in [0.5, 1]", other.MovedFrac)
	}
}

// rankCandidates builds a diverse candidate population for the
// estimator-vs-full-sim comparison tests.
func rankCandidates(t testing.TB, s *Space, n int) []Genome {
	t.Helper()
	genomes, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	seen := map[string]bool{}
	for _, g := range genomes {
		seen[g.Key()] = true
	}
	for tries := 0; len(genomes) < n && tries < 10000; tries++ {
		g := mutate(s, rng, genomes[rng.Intn(len(genomes))], 2)
		if s.Validate(g) != nil || seen[g.Key()] {
			continue
		}
		seen[g.Key()] = true
		genomes = append(genomes, g)
	}
	if len(genomes) < n {
		t.Fatalf("could not build %d distinct candidates", n)
	}
	return genomes
}

// TestEstimatorFullSimRankAgreement is the differential gate of the
// acceptance criteria: over a diverse candidate set, the estimator's
// top-8 must substantially agree with the full scheduler's top-8.
func TestEstimatorFullSimRankAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scheduler comparison is slow")
	}
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(t, spec)
	tr, sel := testTrace(t, spec, 1<<19)
	ev, err := NewEvaluator(s, tr, spec.Timing, 8192)
	if err != nil {
		t.Fatal(err)
	}
	seeds, ids, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	baseline := seeds[0]
	for i, id := range ids {
		if id == sel.ID {
			baseline = seeds[i]
		}
	}
	if err := ev.SetBaseline(baseline); err != nil {
		t.Fatal(err)
	}

	const n = 20
	genomes := rankCandidates(t, s, n)
	type scored struct {
		idx      int
		est, sim float64
	}
	results := make([]scored, n)
	for i, g := range genomes {
		c, err := ev.Score(g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := SimScore(spec, tr, m)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = scored{idx: i, est: c.EstCycles, sim: sim.SimCycles}
	}
	top := func(key func(scored) float64) map[int]bool {
		order := append([]scored(nil), results...)
		sort.Slice(order, func(i, j int) bool { return key(order[i]) < key(order[j]) })
		set := map[int]bool{}
		for _, s := range order[:8] {
			set[s.idx] = true
		}
		return set
	}
	estTop := top(func(s scored) float64 { return s.est })
	simTop := top(func(s scored) float64 { return s.sim })
	overlap := 0
	for i := range estTop {
		if simTop[i] {
			overlap++
		}
	}
	if overlap < 6 {
		for _, r := range results {
			t.Logf("cand %2d est=%12.0f sim=%12.0f  %s", r.idx, r.est, r.sim, genomes[r.idx].Describe())
		}
		t.Fatalf("estimator top-8 overlaps full-sim top-8 on only %d candidates, want >= 6", overlap)
	}
}

// TestEstimatorSpeedupGate enforces the acceptance criterion: the
// estimator must evaluate >= 10^4 candidates in the time the full
// scheduler needs for <= 10^2 — a >= 100x per-candidate speedup.
func TestEstimatorSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate is slow")
	}
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(t, spec)
	tr, _ := testTrace(t, spec, 2<<20)
	ev, err := NewEvaluator(s, tr, spec.Timing, 16384)
	if err != nil {
		t.Fatal(err)
	}
	seeds, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.SetBaseline(seeds[0]); err != nil {
		t.Fatal(err)
	}
	genomes := rankCandidates(t, s, 8)

	// Warm both paths once, then time.
	if _, err := ev.Score(genomes[0]); err != nil {
		t.Fatal(err)
	}
	m, err := s.Build(genomes[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimScore(spec, tr, m); err != nil {
		t.Fatal(err)
	}

	const nEst = 400
	start := time.Now()
	for i := 0; i < nEst; i++ {
		if _, err := ev.Score(genomes[i%len(genomes)]); err != nil {
			t.Fatal(err)
		}
	}
	estPer := time.Since(start) / nEst

	const nSim = 2
	start = time.Now()
	for i := 0; i < nSim; i++ {
		mm, err := s.Build(genomes[i%len(genomes)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SimScore(spec, tr, mm); err != nil {
			t.Fatal(err)
		}
	}
	simPer := time.Since(start) / nSim

	speedup := float64(simPer) / float64(estPer)
	t.Logf("estimator %v/candidate, full scheduler %v/candidate: %.0fx", estPer, simPer, speedup)
	if speedup < 100 {
		t.Fatalf("per-candidate speedup %.0fx below the 100x gate (est %v, sim %v)", speedup, estPer, simPer)
	}
}

// packedDA translates one burst code through the prepared LUTs and
// unpacks the coordinates the cost loop uses: dense global bank
// (bank | rank<<bankBits | channel<<(bankBits+rankBits)), full row
// index, column, and channel. Tests verify it bit-identical to the
// built addr mapping.
func (e *Evaluator) packedDA(code uint32) (gb, row, col, ch uint32) {
	pb := code & e.pageMask
	pg := code >> e.pageBits
	da := e.lo[pb&0xff] ^ e.hi[pb>>8]
	gb = (da >> e.colBits) & e.puMask
	row = (da >> (e.colBits + e.puBits)) | (pg << e.pageRowBits)
	col = da & (1<<e.colBits - 1)
	ch = gb >> (e.bankBits + e.rankBit)
	return
}
