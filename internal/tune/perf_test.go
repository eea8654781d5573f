package tune

import (
	"context"
	"testing"

	"facil/internal/dram"
)

// BenchmarkEvaluatorScore measures the tier-one hot loop: one paced
// virtual-time replay of the windowed trace per candidate. This is the
// raw per-candidate cost the search pays Budget times;
// TestEstimatorSpeedupGate holds it against BenchmarkSimScore's.
func BenchmarkEvaluatorScore(b *testing.B) {
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(b, spec)
	tr, _ := testTrace(b, spec, 2<<20)
	ev, err := NewEvaluator(s, tr, spec.Timing, 16384)
	if err != nil {
		b.Fatal(err)
	}
	seeds, _, err := s.Seeds()
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.SetBaseline(seeds[0]); err != nil {
		b.Fatal(err)
	}
	genomes := rankCandidates(b, s, 8)
	if _, err := ev.Score(genomes[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Score(genomes[i%len(genomes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScore measures the tier-two cost: the full FR-FCFS
// scheduler replaying the whole trace, paid only for Pareto survivors.
func BenchmarkSimScore(b *testing.B) {
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(b, spec)
	tr, _ := testTrace(b, spec, 2<<20)
	genomes := rankCandidates(b, s, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := s.Build(genomes[i%len(genomes)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SimScore(spec, tr, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch measures a small end-to-end search — generation,
// dedup, the bijection gate, memoization and Pareto maintenance
// included — at the benchmark harness's parallelism.
func BenchmarkSearch(b *testing.B) {
	spec := dram.JetsonOrinLPDDR5
	s := testSpace(b, spec)
	tr, _ := testTrace(b, spec, 1<<20)
	_, ids, err := s.Seeds()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Spec:      spec,
		Trace:     tr,
		Baseline:  ids[0],
		Budget:    64,
		TopK:      4,
		Seed:      1,
		EstWindow: 8192,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
