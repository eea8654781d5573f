package exp

import (
	"context"
	"fmt"

	"facil/internal/cluster"
	"facil/internal/dram"
	"facil/internal/mapping"
	"facil/internal/parallel"
	"facil/internal/soc"
	"facil/internal/tune"
	"facil/internal/workload"
)

// MapTuneConfig parameterizes the mapping auto-tuner experiment: a
// (platform, workload) grid where each platform captures one canonical
// weight trace for its representative projection matrix, and each cell
// weighs it by the workload and searches the generalized permutation+XOR
// mapping space against it.
type MapTuneConfig struct {
	// Platforms are the memory systems tuned (row groups of the tables).
	Platforms []soc.Platform
	// Workloads shape the decode-vs-prefill weighting of each cell's
	// trace: the GEMV phase is weighted by the workload's median decode
	// length, the GEMM phase counts as one prefill pass.
	Workloads []workload.Spec
	// Budget, Seed, TopK and EstWindow mirror tune.Config.
	Budget    int
	Seed      int64
	TopK      int
	EstWindow int
	// SampleBytes bounds each trace phase (default one 2 MiB huge page).
	SampleBytes int64
}

// DefaultMapTuneConfig tunes the two geometry extremes — Jetson (16
// channels, one page-local row bit) and iPhone (4 channels, three) —
// under both paper workloads, with a budget the estimator clears in
// well under a second per cell.
func DefaultMapTuneConfig() MapTuneConfig {
	return MapTuneConfig{
		Platforms:   []soc.Platform{soc.Jetson, soc.IPhone},
		Workloads:   []workload.Spec{workload.AlpacaSpec(), workload.AutocompleteSpec()},
		Budget:      256,
		Seed:        7,
		TopK:        4,
		EstWindow:   16384,
		SampleBytes: 2 << 20,
	}
}

// MapTuneCell is one (platform, workload) tuning outcome: the search
// result plus the full-scheduler re-validation of every Pareto-front
// and fixed-family member.
type MapTuneCell struct {
	// Platform and Workload identify the grid cell.
	Platform soc.Platform
	Workload workload.Spec
	// Matrix is the representative weight matrix the trace walks (the
	// platform model's hidden-dim square projection).
	Matrix mapping.MatrixConfig
	// Selection is select_mapping's verdict for the matrix — the fixed
	// baseline re-layout cost is measured against.
	Selection mapping.Selection
	// Trace is the captured canonical trace.
	Trace *tune.Trace
	// Result is the design-space search outcome.
	Result *tune.Result
	// FrontSim[i] / FixedSim[i] are the full-scheduler verdicts for
	// Result.Front[i] / Result.Fixed[i].
	FrontSim []tune.SimResult
	FixedSim []tune.SimResult
}

// MapTuneCompute evaluates the (platform, workload) grid: it captures
// each platform's trace once (its cells differ only in segment weights),
// searches every cell, then re-validates every front and fixed family in
// one sweep over the distinct (platform, genome) pairs, which each cell
// weighs. Every cell is byte-identical at any parallelism.
func (l *Lab) MapTuneCompute(ctx context.Context, cfg MapTuneConfig) ([]MapTuneCell, error) {
	cells := make([]MapTuneCell, 0, len(cfg.Platforms)*len(cfg.Workloads))
	for _, p := range cfg.Platforms {
		g := p.Spec.Geometry
		model := PlatformModel(p)
		matrix := mapping.MatrixConfig{Rows: model.Hidden, Cols: model.Hidden, DTypeBytes: model.DTypeBytes}
		sel, err := mapping.SelectMapping(matrix, mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}, mapping.AiMChunk(g))
		if err != nil {
			return nil, fmt.Errorf("maptune %s: %w", p.Name, err)
		}
		base, err := tune.CaptureTrace(g, tune.TraceConfig{Matrix: matrix, Streams: sel.RowsPerPass, SampleBytes: cfg.SampleBytes})
		if err != nil {
			return nil, fmt.Errorf("maptune %s: %w", p.Name, err)
		}
		for _, w := range cfg.Workloads {
			tr := base.WithDecodeWeight(float64(w.Decode.MedianTokens))
			res, err := tune.Search(ctx, tune.Config{
				Spec:      p.Spec,
				Trace:     tr,
				Baseline:  sel.ID,
				Budget:    cfg.Budget,
				TopK:      cfg.TopK,
				Seed:      cfg.Seed,
				Workers:   l.par,
				EstWindow: cfg.EstWindow,
			})
			if err != nil {
				return nil, fmt.Errorf("maptune %s/%s: %w", p.Name, w.Name, err)
			}
			cells = append(cells, MapTuneCell{Platform: p, Workload: w, Matrix: matrix, Selection: sel, Trace: tr, Result: res})
		}
	}

	// One replay per distinct (platform, genome); slots[ci] indexes cell
	// ci's front, then its fixed family, into replays.
	type replay struct {
		cell   int
		genome tune.Genome
	}
	var replays []replay
	slot := make(map[string]int)
	slots := make([][]int, len(cells))
	for ci, c := range cells {
		add := func(cand tune.Candidate) {
			k := fmt.Sprint(ci/len(cfg.Workloads), " ", cand.Key)
			if _, ok := slot[k]; !ok {
				slot[k] = len(replays)
				replays = append(replays, replay{ci, cand.Genome})
			}
			slots[ci] = append(slots[ci], slot[k])
		}
		for _, cand := range c.Result.Front {
			add(cand)
		}
		for _, f := range c.Result.Fixed {
			add(f.Candidate)
		}
	}
	segs, err := parallel.Sweep(ctx, replays, func(_ context.Context, r replay) ([]dram.StreamResult, error) {
		c := cells[r.cell]
		m, err := c.Result.Space.Build(r.genome)
		if err != nil {
			return nil, err
		}
		return tune.ReplaySegments(c.Platform.Spec, c.Trace, m)
	}, parallel.Workers(l.par))
	if err != nil {
		return nil, fmt.Errorf("maptune: %w", err)
	}
	for ci := range cells {
		c := &cells[ci]
		sims := make([]tune.SimResult, len(slots[ci]))
		for i, j := range slots[ci] {
			sims[i] = c.Trace.Weigh(segs[j])
		}
		c.FrontSim, c.FixedSim = sims[:len(c.Result.Front)], sims[len(c.Result.Front):]
		if fn := l.progress; fn != nil {
			fn("maptune", ci+1, len(cells))
		}
	}
	return cells, nil
}

// platformShort is the fleet-spec token for a platform ("jetson", ...).
func platformShort(p soc.Platform) string {
	return cluster.DeviceClass{Platform: p}.Label()
}

// familyID resolves a candidate key back to its fixed MapID when the
// search (re)discovered a family member.
func familyID(res *tune.Result, key string) (mapping.MapID, bool) {
	for _, f := range res.Fixed {
		if f.Key == key {
			return f.ID, true
		}
	}
	return 0, false
}

// f0 formats a cycle count cell.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// MapTune renders the mapping auto-tuner comparison: a per-cell summary
// (best searched mapping vs the best fixed MapID, both re-validated on
// the full scheduler) and the Pareto-front detail.
func (l *Lab) MapTune(ctx context.Context, cfg MapTuneConfig) ([]Table, error) {
	cells, err := l.MapTuneCompute(ctx, cfg)
	if err != nil {
		return nil, err
	}
	summary := Table{
		ID:    "maptune",
		Title: "Extension: DRAM mapping auto-tuner (generalized PA-to-DA design-space search)",
		Header: []string{
			"platform", "workload", "matrix", "bursts", "evaluated",
			"best fixed", "fixed sim", "tuned sim", "speedup", "hit rate", "moved",
		},
		Notes: []string{
			fmt.Sprintf("search: %d-candidate budget per cell (seed %d) over page-offset bit permutations plus up to 2 XOR hash terms — a strict superset of the MapID family; every candidate passes a PA/DA bijection check before scoring", cfg.Budget, cfg.Seed),
			"tier one ranks candidates with the paced trace-replay estimator; the Pareto front over (estimated cycles, moved fraction) and the fixed MapID family are then re-validated on the full FR-FCFS scheduler (the sim columns)",
			fmt.Sprintf("traces: one %d KiB window per phase; the gemv phase is weighted by the workload's median decode length, the gemm phase counts as one prefill pass", cfg.SampleBytes>>10),
			"speedup is best-fixed sim cycles over best-tuned sim cycles; moved is the fraction of weight bytes whose placement differs from the select_mapping baseline (re-layout cost)",
		},
	}
	front := Table{
		ID:     "maptune/front",
		Title:  "Pareto front detail (estimated cycles vs re-layout fraction)",
		Header: []string{"platform", "workload", "rank", "est cycles", "sim cycles", "hit rate", "moved", "mapping"},
		Notes: []string{
			"mappings read MSB to LSB over the 2 MiB huge-page offset; row bits above the page come from the page index untouched",
		},
	}
	for _, c := range cells {
		label := platformShort(c.Platform)
		bi := 0
		for i := range c.FixedSim {
			if c.FixedSim[i].SimCycles < c.FixedSim[bi].SimCycles {
				bi = i
			}
		}
		fi := 0
		for i := range c.FrontSim {
			if c.FrontSim[i].SimCycles < c.FrontSim[fi].SimCycles {
				fi = i
			}
		}
		summary.Rows = append(summary.Rows, []string{
			label,
			c.Workload.Name,
			fmt.Sprintf("%dx%d", c.Matrix.Rows, c.Matrix.Cols),
			fmt.Sprintf("%d", c.Trace.Bursts()),
			fmt.Sprintf("%d", c.Result.Evaluated),
			c.Result.Fixed[bi].ID.String(),
			f0(c.FixedSim[bi].SimCycles),
			f0(c.FrontSim[fi].SimCycles),
			x(c.FixedSim[bi].SimCycles / c.FrontSim[fi].SimCycles),
			pc(c.FrontSim[fi].RowHitRate),
			pc(c.Result.Front[fi].Cost.MovedFrac),
		})
		for rank, cand := range c.Result.Front {
			desc := cand.Genome.Describe()
			if id, ok := familyID(c.Result, cand.Key); ok {
				desc += " (= " + id.String() + ")"
			}
			front.Rows = append(front.Rows, []string{
				label,
				c.Workload.Name,
				fmt.Sprintf("%d", rank+1),
				f0(cand.Cost.EstCycles),
				f0(c.FrontSim[rank].SimCycles),
				pc(c.FrontSim[rank].RowHitRate),
				pc(cand.Cost.MovedFrac),
				desc,
			})
		}
	}
	return []Table{summary, front}, nil
}
