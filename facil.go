// Package facil is the public API of the FACIL reproduction: flexible
// DRAM address mapping for SoC-PIM cooperative on-device LLM inference
// (Seo et al., HPCA 2025).
//
// The package wraps the internal simulation stack behind a small surface:
//
//   - Arena: the pimalloc allocation path — select a PIM-optimized MapID
//     for a weight matrix, back it with huge pages, record the MapID in
//     the page-table entries, and translate virtual addresses through the
//     mapping table that is the memory-controller frontend's mux.
//   - System: end-to-end inference latency modeling — TTFT and TTLT for
//     the designs the paper compares (SoC-only, hybrid static/dynamic,
//     FACIL, weight duplication) on the paper's four platforms.
//   - RunExperiment: regenerate any table or figure of the paper.
//
// See examples/ for runnable walkthroughs and DESIGN.md for the system
// inventory.
package facil

import (
	"context"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/llm"
	"facil/internal/soc"
)

// Design identifies one of the compared execution designs.
type Design int

// The designs of the paper's evaluation.
const (
	SoCOnly Design = iota
	HybridStatic
	HybridDynamic
	FACIL
	WeightDuplication
)

// String names the design.
func (d Design) String() string { return d.kind().String() }

func (d Design) kind() engine.Kind {
	switch d {
	case SoCOnly:
		return engine.SoCOnly
	case HybridStatic:
		return engine.HybridStatic
	case HybridDynamic:
		return engine.HybridDynamic
	case FACIL:
		return engine.FACIL
	case WeightDuplication:
		return engine.WeightDuplication
	default:
		return engine.Kind(-1)
	}
}

// Designs lists every design in presentation order.
func Designs() []Design {
	return []Design{SoCOnly, HybridStatic, HybridDynamic, FACIL, WeightDuplication}
}

// Platforms lists the evaluated platform names (paper Table II).
func Platforms() []string {
	var out []string
	for _, p := range soc.All() {
		out = append(out, p.Name)
	}
	return out
}

// Models lists the available LLM preset names.
func Models() []string {
	return []string{"Llama3-8B", "OPT-6.7B", "Phi-1.5", "GPT-J-6B"}
}

// System models one platform running one LLM under every design.
type System struct {
	inner *engine.System
}

// NewSystem builds a system for a platform name (see Platforms) and model
// name (see Models). An empty model selects the paper's assignment for
// the platform.
func NewSystem(platform, model string) (*System, error) {
	p, err := soc.ByName(platform)
	if err != nil {
		return nil, err
	}
	var m llm.Model
	if model == "" {
		m = exp.PlatformModel(p)
	} else {
		if m, err = llm.ByName(model); err != nil {
			return nil, err
		}
	}
	s, err := engine.NewSystem(p, m, engine.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &System{inner: s}, nil
}

// PlatformName returns the platform.
func (s *System) PlatformName() string { return s.inner.Platform.Name }

// ModelName returns the LLM.
func (s *System) ModelName() string { return s.inner.Model.Name }

// TTFT returns the time-to-first-token in seconds for a design at the
// given prefill (input) length. HybridDynamic and FACIL route short
// prefills to PIM automatically. Results are memoized per System for
// prefills up to 2048 tokens, so repeated queries cost a lookup; longer
// prefills are computed on every call and never cached.
func (s *System) TTFT(d Design, prefill int) (float64, error) {
	return s.inner.TTFT(d.kind(), prefill)
}

// TTLT returns the time-to-last-token in seconds for a (prefill, decode)
// query. Results are memoized per System for prefills up to 2048 and
// decodes up to 512 tokens; longer queries are computed on every call
// and never cached, so the System's memory stays bounded.
func (s *System) TTLT(d Design, prefill, decode int) (float64, error) {
	return s.inner.TTLT(d.kind(), prefill, decode)
}

// DecodeStep returns one decode-step latency at a context length.
func (s *System) DecodeStep(d Design, ctx int) (float64, error) {
	return s.inner.DecodeStepSeconds(d.kind(), ctx)
}

// PrefillThreshold returns the profiled prefill length at which the SoC
// route overtakes PIM for a design.
func (s *System) PrefillThreshold(d Design) (int, error) {
	return s.inner.PrefillThreshold(d.kind())
}

// WeightFootprint returns the bytes of weight storage a design holds.
func (s *System) WeightFootprint(d Design) int64 {
	return s.inner.WeightFootprint(d.kind())
}

// Speedup is baseline/t (0 if t <= 0).
func Speedup(baseline, t float64) float64 { return engine.Speedup(baseline, t) }

// RunExperiment regenerates a paper table/figure by its identifier (see
// ExperimentIDs) and returns the rendered text tables. It runs serially;
// use RunExperimentContext for cancellation and parallel sweeps.
func RunExperiment(id string) ([]string, error) {
	return RunExperimentContext(context.Background(), id, 1)
}

// RunExperimentContext is RunExperiment with cancellation and a sweep
// worker bound: experiments fan their points out over up to par workers
// (0 = GOMAXPROCS, 1 = serial). Tables are byte-identical at any par.
func RunExperimentContext(ctx context.Context, id string, par int) ([]string, error) {
	lab := exp.NewLab(engine.DefaultConfig())
	lab.SetParallelism(par)
	tabs, err := lab.Run(ctx, id, exp.DefaultConfigs())
	if err != nil {
		return nil, err
	}
	out := make([]string, len(tabs))
	for i, t := range tabs {
		out[i] = t.String()
	}
	return out, nil
}

// ExperimentIDs lists the regenerable experiments in DESIGN.md order.
func ExperimentIDs() []string {
	return append([]string(nil), exp.AllIDs...)
}

// Version identifies the reproduction release.
const Version = "1.0.0"
