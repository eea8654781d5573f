package engine

import (
	"fmt"
	"math"

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
// two KV-cache GEMVs (scores and weighted sum) per layer. Contexts past
// the tables' bound skip the device's shape cache too.
func (s *System) pimAttentionSeconds(ctx int) (float64, error) {
	if ctx <= 0 {
		return 0, nil
	}
	gemv := s.pimDev.GEMV
	if ctx >= memoMaxCtx {
		gemv = s.pimDev.GEMVUncached
	}
	r, err := gemv(s.Model.AttentionKVMatrix(ctx))
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

// relayoutAllWeightsSum is the on-demand re-layout cost of one full
// prefill pass in the hybrid baseline, memoized per System as
// relayoutAllWeightsSeconds: every weight matrix is copied from its PIM
// mapping into a conventional scratch buffer before its GEMM (paper
// Fig. 5(b); the transient copy keeps peak memory near one matrix).
func (s *System) relayoutAllWeightsSum() (float64, error) {
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
// ctx under a design, served from the System's step slices; a hit is
// two loads.
func (s *System) DecodeStepSeconds(k Kind, ctx int) (float64, error) {
	if uint(k) < uint(numKinds) && uint(ctx) < memoMaxCtx {
		if v := s.steps[k][ctx].Load(); v != 0 {
			return math.Float64frombits(v), nil
		}
	}
	return s.decodeStep(k, ctx)
}

// decodeStep is DecodeStepSeconds' miss path: it sums the step's
// breakdown and stores it if ctx is inside the step slices.
func (s *System) decodeStep(k Kind, ctx int) (float64, error) {
	if uint(k) >= uint(numKinds) {
		return 0, fmt.Errorf("engine: unknown design %v", k)
	}
	b, err := s.DecodeStepBreakdown(k, ctx)
	if err != nil {
		return 0, err
	}
	t := b.LinearSeconds + b.AttentionSeconds + b.OtherSeconds
	if uint(ctx) < memoMaxCtx {
		s.steps[k][ctx].Store(math.Float64bits(t))
	}
	return t, nil
}

// DecodeQuantumSteps is the serving sims' decode scheduling quantum in
// steps: the window DecodeQuantumSeconds serves from its table.
const DecodeQuantumSteps = 8

// DecodeQuantumSeconds returns the latency of the n decode steps at
// contexts ctx, ctx+1, ..., ctx+n-1 of design k, each scaled by a
// thermal slowdown factor and summed left to right from 0: the same
// bits as adding DecodeStepSeconds*factor in that order. An unscaled
// full quantum (factor 1, n == DecodeQuantumSteps) whose window fits
// the step slices is served from the System's quantum slices, one load
// on a hit; any other window is summed step by step. At factor 1 each
// product is the step itself, so DecodeSeconds sums its windows here.
func (s *System) DecodeQuantumSeconds(k Kind, ctx, n int, factor float64) (float64, error) {
	table := factor == 1 && n == DecodeQuantumSteps && uint(k) < uint(numKinds) && uint(ctx) <= memoMaxCtx-DecodeQuantumSteps
	if table {
		if v := s.quanta[k][ctx].Load(); v != 0 {
			return math.Float64frombits(v), nil
		}
	}
	var t float64
	for i := 0; i < n; i++ {
		st, err := s.DecodeStepSeconds(k, ctx+i)
		if err != nil {
			return 0, err
		}
		t += st * factor
	}
	if table {
		s.quanta[k][ctx].Store(math.Float64bits(t))
	}
	return t, nil
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
