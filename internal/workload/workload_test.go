package workload

import (
	"math/rand"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(AlpacaSpec(), 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(AlpacaSpec(), 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs across identical seeds", i)
		}
	}
	c, err := Generate(AlpacaSpec(), 100, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Queries {
		if a.Queries[i] != c.Queries[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateBounds(t *testing.T) {
	for _, spec := range []Spec{AlpacaSpec(), AutocompleteSpec()} {
		ds, err := Generate(spec, 2000, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ds.Queries {
			if q.Prefill < spec.Prefill.Min || q.Prefill > spec.Prefill.Max {
				t.Fatalf("%s: prefill %d out of [%d,%d]", spec.Name, q.Prefill, spec.Prefill.Min, spec.Prefill.Max)
			}
			if q.Decode < spec.Decode.Min || q.Decode > spec.Decode.Max {
				t.Fatalf("%s: decode %d out of [%d,%d]", spec.Name, q.Decode, spec.Decode.Min, spec.Decode.Max)
			}
		}
	}
}

func TestDatasetProfilesDiffer(t *testing.T) {
	// The defining property of the two workloads: conversation has
	// short prompts and longer answers; autocompletion is the reverse.
	alpaca, err := Generate(AlpacaSpec(), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(AutocompleteSpec(), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(alpaca.MeanPrefill() < alpaca.MeanDecode()) {
		t.Errorf("Alpaca prefill %.1f !< decode %.1f", alpaca.MeanPrefill(), alpaca.MeanDecode())
	}
	if !(code.MeanPrefill() > code.MeanDecode()) {
		t.Errorf("autocomplete prefill %.1f !> decode %.1f", code.MeanPrefill(), code.MeanDecode())
	}
	if !(code.MeanPrefill() > 4*alpaca.MeanPrefill()) {
		t.Errorf("code prompts (%.1f) not much longer than chat prompts (%.1f)",
			code.MeanPrefill(), alpaca.MeanPrefill())
	}
}

func TestLengthDistClamps(t *testing.T) {
	d := LengthDist{MedianTokens: 100, Sigma: 5, Min: 10, Max: 20}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v < 10 || v > 20 {
			t.Fatalf("sample %d escaped clamp", v)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(AlpacaSpec(), 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestMeansOnEmptyDataset(t *testing.T) {
	var d Dataset
	if d.MeanPrefill() != 0 || d.MeanDecode() != 0 {
		t.Error("empty dataset means must be 0")
	}
}

// TestStreamMatchesGenerate holds the lazy stream to the up-front
// dataset: for every spec at several seeds, the stream's k-th draw
// equals Generate's k-th query and a frozen copy of the draw loop
// Generate ran before the stream existed (one rng, prefill then decode
// per query), so a caller that switches between the two sees the same
// lengths.
func TestStreamMatchesGenerate(t *testing.T) {
	const n = 5000
	for _, spec := range []Spec{AlpacaSpec(), AutocompleteSpec()} {
		for _, seed := range []int64{0, 1, 8, 12, -7} {
			ds, err := Generate(spec, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStream(spec, seed)
			rng := rand.New(rand.NewSource(seed))
			for k, q := range ds.Queries {
				frozen := Query{Prefill: spec.Prefill.Sample(rng), Decode: spec.Decode.Sample(rng)}
				if got := st.Next(); got != q || got != frozen {
					t.Fatalf("%s seed %d: draw %d is %+v, Generate %+v, frozen loop %+v", spec.Name, seed, k, got, q, frozen)
				}
			}
		}
	}
}
