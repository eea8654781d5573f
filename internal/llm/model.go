// Package llm describes transformer decoder models at the tensor-shape
// level: which weight matrices exist, which GEMM/GEMV operations each
// inference phase performs, and how large the KV cache grows. Latency
// depends only on these shapes, so no weight values are stored.
package llm

import (
	"fmt"

	"facil/internal/mapping"
	"facil/internal/soc"
)

// MLPKind distinguishes the feed-forward variants.
type MLPKind int

const (
	// MLPGated is the Llama-style gate/up/down SwiGLU block.
	MLPGated MLPKind = iota
	// MLPStandard is the classic fc1/fc2 block (OPT, Phi, GPT-J).
	MLPStandard
)

// Model is a decoder-only transformer architecture.
type Model struct {
	Name         string
	Layers       int
	Hidden       int
	Intermediate int
	Heads        int
	// KVHeads < Heads means grouped-query attention.
	KVHeads    int
	HeadDim    int
	Vocab      int
	DTypeBytes int
	MLP        MLPKind
	// TiedEmbeddings means the LM head shares the embedding matrix.
	TiedEmbeddings bool
}

// Validate rejects inconsistent architectures.
func (m Model) Validate() error {
	if m.Layers <= 0 || m.Hidden <= 0 || m.Intermediate <= 0 ||
		m.Heads <= 0 || m.KVHeads <= 0 || m.HeadDim <= 0 || m.Vocab <= 0 {
		return fmt.Errorf("llm: %s: all dimensions must be positive", m.Name)
	}
	if m.Heads*m.HeadDim != m.Hidden {
		return fmt.Errorf("llm: %s: heads(%d) x headDim(%d) != hidden(%d)",
			m.Name, m.Heads, m.HeadDim, m.Hidden)
	}
	if m.Heads%m.KVHeads != 0 {
		return fmt.Errorf("llm: %s: heads %d not divisible by KV heads %d", m.Name, m.Heads, m.KVHeads)
	}
	if m.DTypeBytes <= 0 {
		return fmt.Errorf("llm: %s: element size must be positive", m.Name)
	}
	return nil
}

// KVDim returns the K (or V) projection output width.
func (m Model) KVDim() int { return m.KVHeads * m.HeadDim }

// WeightMatrix names one weight matrix of the model.
type WeightMatrix struct {
	// Name identifies the matrix, e.g. "layer.q_proj" (one instance
	// per layer) or "lm_head".
	Name string
	// Out, In are the GEMV dimensions: y[Out] = W[Out,In] · x[In].
	Out, In int
	// PerLayer is true for matrices repeated in every decoder layer.
	PerLayer bool
}

// Matrix converts to the mapping selector's input.
func (w WeightMatrix) Matrix(dtypeBytes int) mapping.MatrixConfig {
	return mapping.MatrixConfig{Rows: w.Out, Cols: w.In, DTypeBytes: dtypeBytes}
}

// Bytes returns the matrix footprint.
func (w WeightMatrix) Bytes(dtypeBytes int) int64 {
	return int64(w.Out) * int64(w.In) * int64(dtypeBytes)
}

// WeightMatrices lists every distinct linear weight matrix of the model,
// per-layer matrices once (flagged PerLayer).
func (m Model) WeightMatrices() []WeightMatrix {
	h, kv, i := m.Hidden, m.KVDim(), m.Intermediate
	ms := []WeightMatrix{
		{Name: "q_proj", Out: h, In: h, PerLayer: true},
		{Name: "k_proj", Out: kv, In: h, PerLayer: true},
		{Name: "v_proj", Out: kv, In: h, PerLayer: true},
		{Name: "o_proj", Out: h, In: h, PerLayer: true},
	}
	switch m.MLP {
	case MLPGated:
		ms = append(ms,
			WeightMatrix{Name: "gate_proj", Out: i, In: h, PerLayer: true},
			WeightMatrix{Name: "up_proj", Out: i, In: h, PerLayer: true},
			WeightMatrix{Name: "down_proj", Out: h, In: i, PerLayer: true},
		)
	default:
		ms = append(ms,
			WeightMatrix{Name: "fc1", Out: i, In: h, PerLayer: true},
			WeightMatrix{Name: "fc2", Out: h, In: i, PerLayer: true},
		)
	}
	ms = append(ms, WeightMatrix{Name: "lm_head", Out: m.Vocab, In: h, PerLayer: false})
	return ms
}

// LinearWeightBytes sums all linear weights (layers x per-layer matrices
// plus the LM head; embeddings excluded — they are gathered, not GEMVed).
func (m Model) LinearWeightBytes() int64 {
	var total int64
	for _, w := range m.WeightMatrices() {
		b := w.Bytes(m.DTypeBytes)
		if w.PerLayer {
			b *= int64(m.Layers)
		}
		total += b
	}
	return total
}

// TotalWeightBytes adds the token embedding table.
func (m Model) TotalWeightBytes() int64 {
	emb := int64(m.Vocab) * int64(m.Hidden) * int64(m.DTypeBytes)
	if m.TiedEmbeddings {
		// The LM head already counted the shared matrix.
		emb = 0
	}
	return m.LinearWeightBytes() + emb
}

// PrefillLinears returns the GEMM operations of one prefill pass with
// sequence length l: every per-layer matrix at batch l, plus the LM head
// for the single next-token logit computation.
func (m Model) PrefillLinears(l int) []soc.Linear {
	var ops []soc.Linear
	for _, w := range m.WeightMatrices() {
		if !w.PerLayer {
			continue
		}
		op := soc.Linear{L: l, In: w.In, Out: w.Out, DTypeBytes: m.DTypeBytes}
		for k := 0; k < m.Layers; k++ {
			ops = append(ops, op)
		}
	}
	// LM head computes logits for the last position only.
	ops = append(ops, soc.Linear{L: 1, In: m.Hidden, Out: m.Vocab, DTypeBytes: m.DTypeBytes})
	return ops
}

// DecodeLinears returns the GEMV operations of one decode step.
func (m Model) DecodeLinears() []soc.Linear {
	return m.PrefillLinears(1)
}

// AttentionKVMatrix describes the per-layer KV-cache tensor at context
// length ctx as a GEMV operand: scoring reads K (ctx x kvDim) and the
// weighted sum reads V (same shape). Used to model attention on PIM.
func (m Model) AttentionKVMatrix(ctx int) mapping.MatrixConfig {
	return mapping.MatrixConfig{Rows: ctx, Cols: m.KVDim(), DTypeBytes: m.DTypeBytes}
}

// AttentionBytesPerStep returns the KV-cache bytes one decode step reads
// across all layers at context length ctx.
func (m Model) AttentionBytesPerStep(ctx int) int64 {
	return 2 * int64(m.Layers) * int64(ctx) * int64(m.KVDim()) * int64(m.DTypeBytes)
}
