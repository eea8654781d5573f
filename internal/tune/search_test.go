package tune

import (
	"context"
	"reflect"
	"testing"

	"facil/internal/dram"
	"facil/internal/mapping"
)

func searchConfig(t *testing.T, workers int) Config {
	t.Helper()
	spec := dram.JetsonOrinLPDDR5
	tr, sel := testTrace(t, spec, 1<<19)
	return Config{
		Spec:      spec,
		Trace:     tr,
		Baseline:  sel.ID,
		Budget:    128,
		Seed:      7,
		Workers:   workers,
		EstWindow: 4096,
	}
}

// TestSearchDeterministic pins the sweep determinism contract for the
// tuner: one worker and eight workers produce identical results.
func TestSearchDeterministic(t *testing.T) {
	r1, err := Search(context.Background(), searchConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Search(context.Background(), searchConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Evaluated != r8.Evaluated {
		t.Fatalf("evaluated %d at par1, %d at par8", r1.Evaluated, r8.Evaluated)
	}
	if len(r1.Front) != len(r8.Front) {
		t.Fatalf("front size %d at par1, %d at par8", len(r1.Front), len(r8.Front))
	}
	for i := range r1.Front {
		if r1.Front[i].Key != r8.Front[i].Key || r1.Front[i].Cost != r8.Front[i].Cost {
			t.Fatalf("front[%d] differs: par1 %s %+v, par8 %s %+v",
				i, r1.Front[i].Key, r1.Front[i].Cost, r8.Front[i].Key, r8.Front[i].Cost)
		}
	}
}

// TestSearchInvariants checks the structural contract of a search
// result: the budget is respected, every front member is a valid,
// bijective genome, the front is mutually non-dominated and sorted, and
// it is at least as good as every fixed family member on the estimate
// axis (the family seeds the population, so the front can only improve
// on it).
func TestSearchInvariants(t *testing.T) {
	cfg := searchConfig(t, 0)
	res, err := Search(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated > cfg.Budget {
		t.Fatalf("evaluated %d candidates, budget was %d", res.Evaluated, cfg.Budget)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	if len(res.Fixed) == 0 {
		t.Fatal("missing fixed-family scores")
	}
	for i, c := range res.Front {
		if err := res.Space.Validate(c.Genome); err != nil {
			t.Fatalf("front[%d] invalid: %v", i, err)
		}
		m, err := res.Space.Build(c.Genome)
		if err != nil {
			t.Fatalf("front[%d] does not build: %v", i, err)
		}
		if err := VerifyBijection(m, cfg.Spec.Geometry, 64, 1); err != nil {
			t.Fatalf("front[%d] fails bijection: %v", i, err)
		}
		if i > 0 && c.Cost.EstCycles < res.Front[i-1].Cost.EstCycles {
			t.Fatalf("front not sorted by EstCycles at %d", i)
		}
		for j, o := range res.Front {
			if i != j && dominates(o.Cost, c.Cost) {
				t.Fatalf("front[%d] dominates front[%d]", j, i)
			}
		}
	}
	bestFixed := res.Fixed[0].Cost.EstCycles
	for _, f := range res.Fixed {
		if f.Cost.EstCycles < bestFixed {
			bestFixed = f.Cost.EstCycles
		}
	}
	if res.Front[0].Cost.EstCycles > bestFixed {
		t.Fatalf("front best %.0f worse than best fixed %.0f despite family seeding",
			res.Front[0].Cost.EstCycles, bestFixed)
	}
	// The family member matching the baseline must report zero re-layout
	// cost, and it must survive on the front (nothing dominates the
	// moved=0 point).
	var baseMoved float64 = -1
	for _, f := range res.Fixed {
		if f.ID == searchConfig(t, 0).Baseline {
			baseMoved = f.Cost.MovedFrac
		}
	}
	if baseMoved != 0 {
		t.Fatalf("baseline family member reports MovedFrac %v, want 0", baseMoved)
	}
}

// TestSearchBaselineOutOfRange pins the config error path.
func TestSearchBaselineOutOfRange(t *testing.T) {
	cfg := searchConfig(t, 1)
	cfg.Baseline = 0 // conventional: not a PIM family member
	if _, err := Search(context.Background(), cfg); err == nil {
		t.Fatal("Search accepted an out-of-range baseline")
	}
}

// TestSearchMemoExact pins the trace's replay memo: a search of a
// WithDecodeWeight copy of an already-searched trace reuses replays yet
// returns exactly what a search of a freshly captured trace with that
// decode weight returns, on both geometry extremes. A search of the same
// trace under another estimator window or another timing replays every
// candidate anew.
func TestSearchMemoExact(t *testing.T) {
	for _, spec := range []dram.Spec{dram.JetsonOrinLPDDR5, dram.IPhoneLPDDR5} {
		tr, sel := testTrace(t, spec, 1<<19)
		cfg := Config{Spec: spec, Trace: tr, Baseline: sel.ID, Budget: 96, Seed: 3, EstWindow: 4096}
		search := func(cfg Config) *Result {
			t.Helper()
			res, err := Search(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := search(cfg)
		if first.Replayed != first.Evaluated {
			t.Fatalf("%s: a fresh trace replayed %d of %d candidates", spec.Name, first.Replayed, first.Evaluated)
		}

		const decode = 9
		cfg.Trace = tr.WithDecodeWeight(decode)
		shared := search(cfg)
		fresh, err := CaptureTrace(spec.Geometry, TraceConfig{
			Matrix:       mapping.MatrixConfig{Rows: 2048, Cols: 2048, DTypeBytes: 2},
			Streams:      sel.RowsPerPass,
			SampleBytes:  1 << 19,
			DecodeWeight: decode,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = fresh
		want := search(cfg)
		if shared.Replayed >= shared.Evaluated || want.Replayed != want.Evaluated {
			t.Fatalf("%s: the copy replayed %d of %d, the fresh capture %d of %d; want the copy to reuse replays",
				spec.Name, shared.Replayed, shared.Evaluated, want.Replayed, want.Evaluated)
		}
		if shared.Evaluated != want.Evaluated || !reflect.DeepEqual(shared.Front, want.Front) || !reflect.DeepEqual(shared.Fixed, want.Fixed) {
			t.Fatalf("%s: search of the memo-sharing copy differs from a fresh capture:\ncopy  %d %+v\nfresh %d %+v",
				spec.Name, shared.Evaluated, shared.Front, want.Evaluated, want.Front)
		}

		cfg.Trace = tr
		cfg.EstWindow = 2048
		if r := search(cfg); r.Replayed != r.Evaluated {
			t.Errorf("%s: another EstWindow reused %d replays", spec.Name, r.Evaluated-r.Replayed)
		}
		cfg.EstWindow = 4096
		cfg.Spec.Timing.TRCD++
		if r := search(cfg); r.Replayed != r.Evaluated {
			t.Errorf("%s: another timing reused %d replays", spec.Name, r.Evaluated-r.Replayed)
		}
	}
}
