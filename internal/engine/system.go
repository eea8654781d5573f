// Package engine assembles the full FACIL evaluation stack: a platform
// (SoC roofline model + DRAM spec), an LLM, a PIM device simulation, a
// re-layout cost engine and the FACIL mapping machinery. It computes the
// paper's end-to-end metrics — time-to-first-token (TTFT) and
// time-to-last-token (TTLT) — for each of the compared designs:
//
//   - SoCOnly: weights in the conventional mapping, everything on the SoC.
//   - HybridStatic: single weight copy in PIM layout; prefill GEMMs on the
//     SoC after an on-demand re-layout of each matrix; decode on PIM.
//   - HybridDynamic: HybridStatic plus the profiling-based choice to run
//     short prefills directly on PIM (paper Sec. VI-C).
//   - FACIL: flexible mapping lets the SoC run GEMMs directly on the
//     PIM-laid-out weights (worst-case Table III slowdown applied), no
//     re-layout ever; includes the dynamic prefill offload.
//   - WeightDuplication: two weight copies (Fig. 5(a)) — fast but 2x
//     memory.
package engine

import (
	"fmt"
	"sync"

	"facil/internal/llm"
	"facil/internal/mapping"
	"facil/internal/parallel"
	"facil/internal/pim"
	"facil/internal/relayout"
	"facil/internal/soc"
)

// Kind selects an execution design.
type Kind int

// The compared designs.
const (
	SoCOnly Kind = iota
	HybridStatic
	HybridDynamic
	FACIL
	WeightDuplication
)

// String names the design as in the paper's figures.
func (k Kind) String() string {
	switch k {
	case SoCOnly:
		return "SoC-only"
	case HybridStatic:
		return "hybrid static"
	case HybridDynamic:
		return "hybrid dynamic"
	case FACIL:
		return "FACIL"
	case WeightDuplication:
		return "weight duplication"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// otherFraction sizes the non-linear per-token work (norms, softmax,
// rope, sampling, kernel launches) that stays on the SoC, as a fraction
// of the SoC's decode-phase linear time. The paper's Fig. 2(a) shows
// linear ops take >90% of decode time.
const otherFraction = 0.09

// Config overrides the stack's default modeling choices.
type Config struct {
	// PIM overrides the default AiM configuration when non-nil.
	PIM *pim.Config
}

// DefaultConfig returns the paper's configuration: the default AiM
// PIM device.
func DefaultConfig() Config {
	return Config{}
}

// System is one platform+model evaluation stack.
//
// A System is safe for concurrent use by multiple goroutines: every
// query-path field is immutable after NewSystem returns, and the
// memoization caches (here and in the pim.Device and relayout.Engine it
// owns) are internally synchronized with in-flight deduplication, so
// concurrent misses on the same key compute the value exactly once and
// all callers observe identical results.
type System struct {
	Platform soc.Platform
	Model    llm.Model
	mem      mapping.MemoryConfig
	pimDev   *pim.Device
	relayout *relayout.Engine

	// weights caches the model's weight matrices with their placement.
	weights []placedWeight
	// decodeCache memoizes per-step decode latencies by (kind, ctx),
	// deduplicating concurrent misses so a worker storm computes each
	// step exactly once.
	decodeCache parallel.Flight[decodeKey, float64]
	// prefillCache memoizes TTFT and TTFTStatic by (kind, prefill
	// length, route): one read-only table per System that every serving
	// sim and dataset query on it shares. pimPrefillCache memoizes the
	// all-PIM prefill by length, which is the same for every design.
	prefillCache    parallel.Flight[prefillKey, float64]
	pimPrefillCache parallel.Flight[int, float64]
	// decodeRows memoizes DecodeSeconds as running sums by (decode path,
	// prefill length); see decodeRow.
	decodeRows parallel.Flight[decodeRowKey, *decodeRow]
	// socLinearStep is one decode step's linear time on the SoC, and
	// pimLinearStep its PIM counterpart computed on first use; both are
	// per-step constants of the System, as is the full-model re-layout
	// cost relayoutAllWeightsSeconds, also computed on first use.
	socLinearStep             float64
	pimLinearStep             func() (float64, error)
	relayoutAllWeightsSeconds func() (float64, error)
}

type placedWeight struct {
	w      llm.WeightMatrix
	matrix mapping.MatrixConfig
	sel    mapping.Selection
	count  int // instances (layers or 1)
}

type decodeKey struct {
	kind Kind
	ctx  int
}

type prefillKey struct {
	kind  Kind
	l     int
	route prefillRoute
}

// prefillRoute selects which prefill a TTFT memo entry holds.
type prefillRoute uint8

const (
	// routeStatic is the design's SoC prefill path (TTFTStatic).
	routeStatic prefillRoute = iota
	// routeDynamic is the faster of the SoC path and an all-PIM prefill
	// for the designs that offload short prefills (TTFT).
	routeDynamic
)

type decodeRowKey struct {
	path Kind // the decode path's representative design; see decodePath
	l    int  // prefill length
}

// decodeRow holds one (decode path, prefill) row of running decode
// sums, grown on demand: sums[j] is steps 1..j added left to right, the
// order DecodeSeconds' loop adds them, so sums[d-1] equals that loop's
// result bit for bit.
type decodeRow struct {
	mu   sync.Mutex
	sums []float64
}

// The memos cache lengths up to the workload generators' clamps
// (prefill 2048, decode 512; internal/workload). Longer queries are
// computed and not cached, so a long-lived caller with arbitrary
// lengths cannot grow a System's memory without limit.
const (
	memoMaxPrefill = 2048
	memoMaxDecode  = 512
)

// NewSystem builds the stack for a platform and model.
func NewSystem(p soc.Platform, m llm.Model, cfg Config) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		Platform: p,
		Model:    m,
		mem:      mapping.MemoryConfig{Geometry: p.Spec.Geometry, HugePageBytes: 2 << 20},
	}
	pimCfg := pim.DefaultAiM(p.Spec.Geometry)
	if cfg.PIM != nil {
		pimCfg = *cfg.PIM
	}
	table, err := mapping.NewTable(s.mem, pimCfg.Chunk)
	if err != nil {
		return nil, err
	}
	if s.pimDev, err = pim.NewDevice(p.Spec, pimCfg); err != nil {
		return nil, err
	}
	if s.relayout, err = relayout.NewEngine(p.Spec, table, 0); err != nil { // 0 = DefaultSampleBytes
		return nil, err
	}
	for _, w := range m.WeightMatrices() {
		matrix := w.Matrix(m.DTypeBytes)
		sel, err := mapping.SelectMapping(matrix, s.mem, pimCfg.Chunk)
		if err != nil {
			return nil, err
		}
		count := 1
		if w.PerLayer {
			count = m.Layers
		}
		s.weights = append(s.weights, placedWeight{w: w, matrix: matrix, sel: sel, count: count})
	}
	for _, op := range m.DecodeLinears() {
		s.socLinearStep += p.Seconds(op)
	}
	s.pimLinearStep = sync.OnceValues(s.pimLinearStepSum)
	s.relayoutAllWeightsSeconds = sync.OnceValues(s.relayoutAllWeightsSum)
	return s, nil
}

// PIMDevice exposes the PIM simulation (for Fig. 3-style analyses).
func (s *System) PIMDevice() *pim.Device { return s.pimDev }

// WeightFootprint returns the memory the design holds for weights:
// WeightDuplication stores two copies.
func (s *System) WeightFootprint(k Kind) int64 {
	b := s.Model.TotalWeightBytes()
	if k == WeightDuplication {
		return 2 * b
	}
	return b
}
