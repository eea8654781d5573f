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
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"facil/internal/llm"
	"facil/internal/mapping"
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
	numKinds // sizes the per-design latency tables
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
// query-path field is immutable after NewSystem returns, the latency
// tables are lock-free (see table), and the pim.Device and
// relayout.Engine it owns memoize with in-flight deduplication, so all
// callers observe identical results.
type System struct {
	Platform soc.Platform
	Model    llm.Model
	mem      mapping.MemoryConfig
	pimDev   *pim.Device
	relayout *relayout.Engine

	// weights caches the model's weight matrices with their placement.
	weights []placedWeight
	// The latency memos every serving sim and dataset query on the
	// System shares. The four PIM designs decode alike, so they alias
	// one steps, quanta and decodeRows slice each, and SoC-only has its
	// own. steps holds DecodeStepSeconds by context and quanta the
	// unscaled DecodeQuantumSteps-step sums of DecodeQuantumSeconds by first
	// context, 0 meaning "not computed" (20 KB each per decode path,
	// allocated up front: the serving loop reads them on every decode
	// quantum); decodeRows
	// holds DecodeSeconds as running sums by prefill. prefills holds
	// both TTFT routes by (design, route, prefill), and pimPrefills the
	// all-PIM prefill by length, the same for every design.
	steps       [numKinds][]atomic.Uint64
	quanta      [numKinds][]atomic.Uint64
	decodeRows  [numKinds][]table
	prefills    [numKinds][2]table
	pimPrefills table
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

// prefillRoute selects which prefill a TTFT table holds.
type prefillRoute uint8

const (
	// routeStatic is the design's SoC prefill path (TTFTStatic).
	routeStatic prefillRoute = iota
	// routeDynamic is the faster of the SoC path and an all-PIM prefill
	// for the designs that offload short prefills (TTFT).
	routeDynamic
)

// The tables hold lengths up to the workload generators' clamps
// (prefill 2048, decode 512; internal/workload), and decode-step
// contexts up to the longest such query. Longer lengths are computed
// and not cached, here or in the PIM device's shape cache, so a
// long-lived caller with arbitrary lengths cannot grow a System's
// memory without limit.
const (
	memoMaxPrefill = 2048
	memoMaxDecode  = 512
	memoMaxCtx     = memoMaxPrefill + memoMaxDecode
)

// table is a lock-free memo of positive latencies by length: float64
// bits in atomic words, 0 meaning "not computed". Racing misses compute
// the same deterministic float and store the same bits, so, unlike
// parallel.Flight, a hit takes no lock and a miss waits on no one. The
// words grow by copy to cover the longest length stored, so a table
// costs what its callers use; a store racing a grow may be lost, and
// is then recomputed on its next miss.
type table struct {
	words atomic.Pointer[[]atomic.Uint64]
}

// get returns entry i, or 0 if it is not computed or outside the table.
func (t *table) get(i int) float64 {
	if w := t.words.Load(); w != nil && uint(i) < uint(len(*w)) {
		return math.Float64frombits((*w)[i].Load())
	}
	return 0
}

// put stores v as entry i of a table bounded at n entries, growing it
// to the next power of two past i, at most n.
func (t *table) put(i, n int, v float64) {
	for {
		old := t.words.Load()
		if old != nil && i < len(*old) {
			(*old)[i].Store(math.Float64bits(v))
			return
		}
		w := make([]atomic.Uint64, min(n, max(64, 1<<bits.Len(uint(i)))))
		if old != nil {
			for j := range *old {
				w[j].Store((*old)[j].Load())
			}
		}
		w[i].Store(math.Float64bits(v))
		if t.words.CompareAndSwap(old, &w) {
			return
		}
	}
}

// memo returns entry i of a table bounded at n entries, computing it
// with fn on a miss. Lengths outside [0, n) are computed and not
// cached, and errors are never stored.
func (t *table) memo(i, n int, fn func() (float64, error)) (float64, error) {
	if v := t.get(i); v != 0 {
		return v, nil
	}
	v, err := fn()
	if err == nil && uint(i) < uint(n) {
		t.put(i, n, v)
	}
	return v, err
}

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
	newPath := func() ([]atomic.Uint64, []atomic.Uint64, []table) {
		return make([]atomic.Uint64, memoMaxCtx), make([]atomic.Uint64, memoMaxCtx), make([]table, memoMaxPrefill+1)
	}
	pimSteps, pimQuanta, pimRows := newPath()
	for k := range s.steps {
		s.steps[k], s.quanta[k], s.decodeRows[k] = pimSteps, pimQuanta, pimRows
	}
	s.steps[SoCOnly], s.quanta[SoCOnly], s.decodeRows[SoCOnly] = newPath()
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
