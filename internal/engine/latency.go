package engine

import (
	"fmt"

	"facil/internal/mapping"
)

// otherStepSeconds is the non-linear per-token SoC work of one decode
// step: a fixed cost anchored to the platform's SoC decode-linear time so
// the paper's Fig. 2(a) breakdown (>90% linear) holds, and so PIM offload
// cannot accelerate it (Amdahl).
func (s *System) otherStepSeconds() float64 {
	return otherFraction * s.socLinearStep
}

// socAttentionSeconds is the SoC time to read the KV cache at context ctx
// (memory-bound).
func (s *System) socAttentionSeconds(ctx int) float64 {
	if ctx <= 0 {
		return 0
	}
	return float64(s.Model.AttentionBytesPerStep(ctx)) / (s.Platform.EffectiveBWGBs() * 1e9)
}

// pimLinearStepSum is one decode step's linear time on PIM, memoized per
// System as pimLinearStep: every weight matrix streamed through the bank
// PUs, plus the SoC-side reduction of column-partitioned partial sums.
func (s *System) pimLinearStepSum() (float64, error) {
	var t float64
	for _, pw := range s.weights {
		r, err := s.pimDev.GEMV(pw.matrix)
		if err != nil {
			return 0, err
		}
		t += float64(pw.count) * r.Seconds
		if r.PartialSums > 1 {
			// SoC reduces PartialSums partials per output element:
			// read all partials, write the result.
			bytes := float64(r.PartialSums+1) * float64(pw.matrix.Rows) * float64(pw.matrix.DTypeBytes)
			t += float64(pw.count) * bytes / (s.Platform.EffectiveBWGBs() * 1e9)
		}
	}
	return t, nil
}

// pimAttentionSeconds is the decode-attention time on PIM at context ctx:
// two KV-cache GEMVs (scores and weighted sum) per layer.
func (s *System) pimAttentionSeconds(ctx int) (float64, error) {
	if ctx <= 0 {
		return 0, nil
	}
	kv := s.Model.AttentionKVMatrix(ctx)
	r, err := s.pimDev.GEMV(kv)
	if err != nil {
		return 0, err
	}
	return 2 * float64(s.Model.Layers) * r.Seconds, nil
}

// prefillSoCSeconds is the prefill GEMM time on the SoC at length l:
// the ops of Model.PrefillLinears(l), summed in that order. Each
// distinct op's roofline time is evaluated once and added once per
// instance, so no op list is built. pimLayout applies the platform's
// conservative Table III slowdown. The (1 + otherFraction) factor
// covers the non-linear prefill work.
func (s *System) prefillSoCSeconds(l int, pimLayout bool) float64 {
	var t float64
	for _, pw := range s.weights {
		op := pw.w.PrefillLinear(l, s.Model.DTypeBytes)
		var d float64
		if pimLayout {
			d = s.Platform.SecondsOnPIMLayout(op)
		} else {
			d = s.Platform.Seconds(op)
		}
		for i := 0; i < pw.count; i++ {
			t += d
		}
	}
	return t * (1 + otherFraction)
}

// prefillPIMSeconds runs the whole prefill on PIM: l GEMV passes over the
// weights (tall-and-skinny GEMM), causal attention over the growing KV
// cache, and the per-token non-linear work on the SoC.
func (s *System) prefillPIMSeconds(l int) (float64, error) {
	lin, err := s.pimLinearStep()
	if err != nil {
		return 0, err
	}
	t := float64(l) * (lin + s.otherStepSeconds())
	for ctx := 1; ctx < l; ctx++ {
		at, err := s.pimAttentionSeconds(ctx)
		if err != nil {
			return 0, err
		}
		t += at
	}
	return t, nil
}

// relayoutAllWeightsSeconds is the on-demand re-layout cost of one full
// prefill pass in the hybrid baseline: every weight matrix is copied from
// its PIM mapping into a conventional scratch buffer before its GEMM
// (paper Fig. 5(b); the transient copy keeps peak memory near one matrix).
func (s *System) relayoutAllWeightsSeconds() (float64, error) {
	var t float64
	for _, pw := range s.weights {
		res, err := s.relayout.Cost(pw.sel.ID, mapping.ConventionalMapID, pw.matrix.PaddedBytes())
		if err != nil {
			return 0, err
		}
		t += float64(pw.count) * res.Seconds
	}
	return t, nil
}

// RelayoutAllWeightsSeconds exposes the full-model re-layout cost for
// ablation studies (e.g. the on-demand vs all-at-once policy comparison).
func (s *System) RelayoutAllWeightsSeconds() (float64, error) {
	return s.relayoutAllWeightsSeconds()
}

// DecodeStepSeconds returns one decode step's latency at context length
// ctx under a design. Results are memoized.
func (s *System) DecodeStepSeconds(k Kind, ctx int) (float64, error) {
	return s.decodeCache.Do(decodeKey{kind: k, ctx: ctx}, func() (float64, error) {
		switch k {
		case SoCOnly:
			return s.socLinearStep + s.socAttentionSeconds(ctx) + s.otherStepSeconds(), nil
		case HybridStatic, HybridDynamic, FACIL, WeightDuplication:
			lin, err := s.pimLinearStep()
			if err != nil {
				return 0, err
			}
			at, err := s.pimAttentionSeconds(ctx)
			if err != nil {
				return 0, err
			}
			return lin + at + s.otherStepSeconds(), nil
		default:
			return 0, fmt.Errorf("engine: unknown design %v", k)
		}
	})
}

// IdealNPUDecodeStepSeconds is the paper's Fig. 3 comparator: a
// hypothetical NPU with infinite FLOPS and 100% utilization of the peak
// memory bandwidth — its decode step is pure memory traffic at peak.
func (s *System) IdealNPUDecodeStepSeconds(ctx int) float64 {
	var bytes float64
	for _, op := range s.Model.DecodeLinears() {
		bytes += op.Bytes()
	}
	bytes += float64(s.Model.AttentionBytesPerStep(ctx))
	return bytes / (s.Platform.PeakBWGBs() * 1e9)
}

// PIMStepBreakdown reports one decode step's components for a PIM design
// (Fig. 2(a)-style breakdown on the PIM side).
type PIMStepBreakdown struct {
	LinearSeconds    float64
	AttentionSeconds float64
	OtherSeconds     float64
}

// DecodeStepBreakdown decomposes one decode step of design k at ctx. The
// linear component includes partial-sum reduction.
func (s *System) DecodeStepBreakdown(k Kind, ctx int) (PIMStepBreakdown, error) {
	var b PIMStepBreakdown
	b.OtherSeconds = s.otherStepSeconds()
	if k == SoCOnly {
		b.LinearSeconds = s.socLinearStep
		b.AttentionSeconds = s.socAttentionSeconds(ctx)
		return b, nil
	}
	lin, err := s.pimLinearStep()
	if err != nil {
		return b, err
	}
	at, err := s.pimAttentionSeconds(ctx)
	if err != nil {
		return b, err
	}
	b.LinearSeconds = lin
	b.AttentionSeconds = at
	return b, nil
}
