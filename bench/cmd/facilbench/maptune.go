package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/mapping"
	"facil/internal/parallel"
	"facil/internal/tune"
)

// maptuneSession drives exp.Lab.MapTuneCompute on the maptune
// experiment's default grid (Jetson and iPhone × Alpaca and
// autocomplete, 256 candidates per cell) with the workload seed as the
// tuner's mutation seed.
type maptuneSession struct {
	cfg     exp.MapTuneConfig
	lab     *exp.Lab
	workers int
	last    []exp.MapTuneCell
}

func openMaptune(_ context.Context, seed int64) (session, error) {
	cfg := exp.DefaultMapTuneConfig()
	cfg.Seed = seed
	workers := runtime.GOMAXPROCS(0)
	lab := exp.NewLab(engine.DefaultConfig())
	lab.SetParallelism(workers)
	return &maptuneSession{cfg: cfg, lab: lab, workers: workers}, nil
}

func (t *maptuneSession) close() {}

// op runs MapTuneCompute, or with a recorder the same computation call
// by call (tracedMapTune); both must produce the same digest.
func (t *maptuneSession) op(ctx context.Context, rec *recorder, parent int) opResult {
	var cells []exp.MapTuneCell
	secs, err := timed(func() (err error) {
		if rec == nil {
			cells, err = t.lab.MapTuneCompute(ctx, t.cfg)
		} else {
			cells, err = tracedMapTune(ctx, rec, parent, t.cfg, t.workers)
		}
		return err
	})
	t.last = cells
	work := 0
	for _, c := range cells {
		work += c.Result.Evaluated
	}
	return checked(secs, float64(work), cellsDigest(cells), err, checkMapTune(cells))
}

// tracedMapTune is MapTuneCompute spelled out over the public tuner API
// with a span around each call: per cell the trace capture, the
// design-space search and the full-scheduler re-validation.
func tracedMapTune(ctx context.Context, rec *recorder, parent int, cfg exp.MapTuneConfig, workers int) ([]exp.MapTuneCell, error) {
	var cells []exp.MapTuneCell
	for _, p := range cfg.Platforms {
		for _, w := range cfg.Workloads {
			g := p.Spec.Geometry
			model := exp.PlatformModel(p)
			matrix := mapping.MatrixConfig{Rows: model.Hidden, Cols: model.Hidden, DTypeBytes: model.DTypeBytes}
			sel, err := mapping.SelectMapping(matrix, mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}, mapping.AiMChunk(g))
			if err != nil {
				return nil, err
			}
			id := rec.begin("tune.CaptureTrace", parent, 1)
			tr, err := tune.CaptureTrace(g, tune.TraceConfig{
				Matrix:       matrix,
				Streams:      sel.RowsPerPass,
				SampleBytes:  cfg.SampleBytes,
				DecodeWeight: float64(w.Decode.MedianTokens),
			})
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin("tune.Search", parent, 1)
			res, err := tune.Search(ctx, tune.Config{
				Spec:      p.Spec,
				Trace:     tr,
				Baseline:  sel.ID,
				Budget:    cfg.Budget,
				TopK:      cfg.TopK,
				Seed:      cfg.Seed,
				Workers:   workers,
				EstWindow: cfg.EstWindow,
			})
			rec.end(id)
			if err != nil {
				return nil, err
			}
			genomes := make([]tune.Genome, 0, len(res.Front)+len(res.Fixed))
			for _, c := range res.Front {
				genomes = append(genomes, c.Genome)
			}
			for _, f := range res.Fixed {
				genomes = append(genomes, f.Genome)
			}
			id = rec.begin("tune.SimScore", parent, 1)
			sims, err := parallel.Sweep(ctx, genomes, func(_ context.Context, gn tune.Genome) (tune.SimResult, error) {
				m, err := res.Space.Build(gn)
				if err != nil {
					return tune.SimResult{}, err
				}
				return tune.SimScore(p.Spec, tr, m)
			}, parallel.Workers(workers))
			rec.end(id)
			if err != nil {
				return nil, err
			}
			cells = append(cells, exp.MapTuneCell{
				Platform: p, Workload: w, Matrix: matrix, Selection: sel, Trace: tr, Result: res,
				FrontSim: sims[:len(res.Front)], FixedSim: sims[len(res.Front):],
			})
		}
	}
	return cells, nil
}

// cellsDigest hashes every cell's search outcome and full-scheduler
// verdicts.
func cellsDigest(cells []exp.MapTuneCell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s/%s %d %+v %+v\n", c.Platform.Name, c.Workload.Name, c.Result.Evaluated, c.FrontSim, c.FixedSim)
		for _, f := range c.Result.Front {
			fmt.Fprintf(h, "%s %+v\n", f.Key, f.Cost)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkMapTune asserts that every Pareto-front mapping is a PA-DA
// bijection and that in every cell the best searched mapping is no
// slower on the full scheduler than the best fixed MapID.
func checkMapTune(cells []exp.MapTuneCell) error {
	best := func(sims []tune.SimResult) float64 {
		b := sims[0].SimCycles
		for _, s := range sims[1:] {
			b = min(b, s.SimCycles)
		}
		return b
	}
	for _, c := range cells {
		name := c.Platform.Name + "/" + c.Workload.Name
		for _, cand := range c.Result.Front {
			m, err := c.Result.Space.Build(cand.Genome)
			if err == nil {
				err = tune.VerifyBijection(m, c.Platform.Spec.Geometry, 256, 1)
			}
			if err != nil {
				return fmt.Errorf("maptune %s: front mapping %s: %w", name, cand.Key, err)
			}
		}
		if len(c.FrontSim) == 0 || len(c.FixedSim) == 0 {
			return fmt.Errorf("maptune %s: nothing re-validated", name)
		}
		if tuned, fixed := best(c.FrontSim), best(c.FixedSim); tuned > fixed {
			return fmt.Errorf("maptune %s: best searched mapping %.0f cycles > best fixed MapID %.0f", name, tuned, fixed)
		}
	}
	return nil
}

// points times the op with the lab at one worker against nproc workers.
func (t *maptuneSession) points(ctx context.Context, n int) (map[string]float64, []opResult) {
	serial := &maptuneSession{cfg: t.cfg, lab: exp.NewLab(engine.DefaultConfig()), workers: 1}
	serial.lab.SetParallelism(1)
	var ops []opResult
	var one, all []float64
	for i := 0; i < n; i++ {
		a, b := serial.op(ctx, nil, 0), t.op(ctx, nil, 0)
		ops = append(ops, a, b)
		one, all = append(one, a.Seconds), append(all, b.Seconds)
	}
	return map[string]float64{"parallel.speedup_x": median(one) / median(all)}, ops
}

func (t *maptuneSession) layer(rec *recorder, n int) map[string]float64 {
	self := selfByName(rec.list())
	evaluated, revalidated := 0, 0
	for _, c := range t.last {
		evaluated += c.Result.Evaluated
		revalidated += len(c.FrontSim) + len(c.FixedSim)
	}
	ops := float64(n)
	search, sim := self["tune.Search"]/ops, self["tune.SimScore"]/ops
	est := ratio(search*1e9, float64(evaluated))
	full := ratio(sim*1e9, float64(revalidated))
	return map[string]float64{
		"tune.capture_s":                self["tune.CaptureTrace"] / ops,
		"tune.search_s":                 search,
		"tune.revalidate_s":             sim,
		"tune.evaluated_per_op":         float64(evaluated),
		"tune.est_ns_per_candidate":     est,
		"tune.fullsim_ms_per_candidate": full / 1e6,
		"tune.est_speedup_x":            ratio(full, est),
	}
}
