package llm

import (
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, m := range []Model{Llama3_8B(), OPT_6_7B(), Phi1_5(), GPTJ6B()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestParameterCountsPlausible(t *testing.T) {
	cases := []struct {
		m        Model
		min, max float64 // billions
	}{
		{Llama3_8B(), 7.5, 8.5},
		{OPT_6_7B(), 6.0, 7.0},
		{Phi1_5(), 1.2, 1.6},
		{GPTJ6B(), 5.5, 6.5},
	}
	for _, c := range cases {
		b := float64(c.m.TotalWeightBytes()/int64(c.m.DTypeBytes)) / 1e9
		if b < c.min || b > c.max {
			t.Errorf("%s: %.2fB params, want [%.1f, %.1f]", c.m.Name, b, c.min, c.max)
		}
	}
}

func TestLlama3WeightBytesMatchPaper(t *testing.T) {
	// The paper loads 16.2 GB of Llama3-8B FP16 weights.
	gb := float64(Llama3_8B().TotalWeightBytes()) / 1e9
	if gb < 15.5 || gb > 16.8 {
		t.Errorf("Llama3-8B weights = %.1f GB, want ~16.2", gb)
	}
}

func TestWeightMatricesShapes(t *testing.T) {
	m := Llama3_8B()
	byName := map[string]WeightMatrix{}
	for _, w := range m.WeightMatrices() {
		byName[w.Name] = w
	}
	if w := byName["q_proj"]; w.Out != 4096 || w.In != 4096 || !w.PerLayer {
		t.Errorf("q_proj = %+v", w)
	}
	// GQA: K/V projections are 1024 wide (8 KV heads x 128).
	if w := byName["k_proj"]; w.Out != 1024 || w.In != 4096 {
		t.Errorf("k_proj = %+v", w)
	}
	if w := byName["gate_proj"]; w.Out != 14336 || w.In != 4096 {
		t.Errorf("gate_proj = %+v", w)
	}
	if w := byName["lm_head"]; w.Out != 128256 || w.PerLayer {
		t.Errorf("lm_head = %+v", w)
	}
	if _, ok := byName["fc1"]; ok {
		t.Error("gated model has fc1")
	}
	// Standard-MLP model has fc1/fc2, no gate.
	opt := OPT_6_7B()
	names := map[string]bool{}
	for _, w := range opt.WeightMatrices() {
		names[w.Name] = true
	}
	if !names["fc1"] || !names["fc2"] || names["gate_proj"] {
		t.Errorf("OPT matrices = %v", names)
	}
}

func TestPrefillDecodeOps(t *testing.T) {
	m := Llama3_8B()
	pre := m.PrefillLinears(64)
	// 7 per-layer matrices x 32 layers + lm head.
	if got, want := len(pre), 7*32+1; got != want {
		t.Errorf("prefill op count = %d, want %d", got, want)
	}
	for _, op := range pre[:len(pre)-1] {
		if op.L != 64 {
			t.Errorf("prefill op L = %d, want 64", op.L)
		}
	}
	if head := pre[len(pre)-1]; head.L != 1 || head.Out != m.Vocab {
		t.Errorf("lm head op = %+v", head)
	}
	dec := m.DecodeLinears()
	if len(dec) != len(pre) {
		t.Errorf("decode op count %d != prefill %d", len(dec), len(pre))
	}
	for _, op := range dec {
		if op.L != 1 {
			t.Errorf("decode op not GEMV: %+v", op)
		}
	}
}

func TestKVAccounting(t *testing.T) {
	m := Llama3_8B()
	// 2 x 32 layers x 1024 x 2 B = 128 KiB per token.
	if got := m.AttentionBytesPerStep(1); got != 131072 {
		t.Errorf("AttentionBytesPerStep(1) = %d, want 131072", got)
	}
	if got := m.AttentionBytesPerStep(100); got != 100*131072 {
		t.Errorf("AttentionBytesPerStep(100) = %d", got)
	}
	kv := m.AttentionKVMatrix(64)
	if kv.Rows != 64 || kv.Cols != 1024 {
		t.Errorf("AttentionKVMatrix = %+v", kv)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	m := Llama3_8B()
	m.HeadDim = 100
	if err := m.Validate(); err == nil {
		t.Error("heads x headDim != hidden accepted")
	}
	m = Llama3_8B()
	m.KVHeads = 7
	if err := m.Validate(); err == nil {
		t.Error("non-divisible KV heads accepted")
	}
	m = Llama3_8B()
	m.Layers = 0
	if err := m.Validate(); err == nil {
		t.Error("zero layers accepted")
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("Phi-1.5")
	if err != nil || m.Hidden != 2048 {
		t.Errorf("ByName: %+v, %v", m, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestTiedEmbeddingsCounting(t *testing.T) {
	opt := OPT_6_7B()
	untied := opt
	untied.TiedEmbeddings = false
	if untied.TotalWeightBytes() <= opt.TotalWeightBytes() {
		t.Error("untied embeddings not larger")
	}
	diff := untied.TotalWeightBytes() - opt.TotalWeightBytes()
	want := int64(opt.Vocab) * int64(opt.Hidden) * int64(opt.DTypeBytes)
	if diff != want {
		t.Errorf("embedding delta = %d, want %d", diff, want)
	}
}
