package run

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/obs"
	"facil/internal/parallel"
)

// Options configures an Engine: the engine.Config its Lab builds
// Systems with, the manifest tool name, and the sweep plumbing (worker
// bound, progress sink, tracer) formerly hardwired in cmd/facilsim.
type Options struct {
	// Config is the latency-model configuration every System is built
	// with; pass engine.DefaultConfig() unless experimenting.
	Config engine.Config
	// Tool names the front end in manifests ("facilsim", "facild");
	// empty defaults to "run".
	Tool string
	// Parallelism bounds every sweep's worker pool (0 = GOMAXPROCS,
	// 1 = serial).
	Parallelism int
	// Progress observes sweep progress (nil = none).
	Progress exp.ProgressFunc
	// Tracer, when non-nil, records trace-aware experiments' timelines
	// into its ring (shared by every scenario the engine executes).
	Tracer *obs.Tracer
}

// Engine executes scenarios against one shared Lab: platform Systems
// (and their memoization caches) persist across Execute calls, so a
// daemon serving many scenarios pays the System construction cost once.
// An Engine is safe for concurrent Execute calls (the Lab is
// goroutine-safe), though front ends typically serialize them.
type Engine struct {
	lab  *exp.Lab
	tool string
	par  int
}

// New builds an engine and its Lab from opts.
func New(opts Options) *Engine {
	lab := exp.NewLab(opts.Config)
	lab.SetParallelism(opts.Parallelism)
	if opts.Progress != nil {
		lab.SetProgress(opts.Progress)
	}
	if opts.Tracer != nil {
		lab.SetTracer(opts.Tracer)
	}
	tool := opts.Tool
	if tool == "" {
		tool = "run"
	}
	return &Engine{lab: lab, tool: tool, par: opts.Parallelism}
}

// ExecOpts carries the per-invocation (non-scenario) execution options:
// where results stream and where files land. Scenario describes *what*
// to run; ExecOpts describes what this front end does with the output.
type ExecOpts struct {
	// Sink consumes results in request order as they become ready (the
	// CLI streams tables from it); nil discards nothing — results are
	// always collected into the returned Report. A sink error marks the
	// experiment failed and execution continues.
	Sink func(exp.Result) error
	// OutDir, when non-empty, mirrors per-experiment files plus
	// manifest.json into the directory (created if needed).
	OutDir string
	// Format selects the OutDir file format: "table", "csv" or "json"
	// (default "json").
	Format string
}

// Execute runs one scenario to completion and returns the Report: a
// manifest stamped with the scenario's canonical command line plus one
// Result per experiment in request order. Per-experiment failures are
// recorded in their Result (and the manifest's Failed list) without
// aborting the remaining identifiers; Execute itself errors only on a
// malformed override (before anything runs) and on export I/O failures.
func (e *Engine) Execute(ctx context.Context, sc Scenario, opts ExecOpts) (exp.Report, error) {
	cfg, err := sc.Configs()
	if err != nil {
		return exp.Report{}, err
	}
	ids := sc.IDs()
	manifest := obs.NewManifest(e.tool, sc.Args())
	manifest.Seed = sc.Seed
	manifest.Parallelism = e.par
	manifest.Experiments = ids

	format := opts.Format
	if format == "" {
		format = "json"
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return exp.Report{}, err
		}
	}

	var report exp.Report
	var failed []string
	results := e.launch(ctx, ids, cfg)
	for i, id := range ids {
		<-results[i].ready
		res := results[i].res
		report.Results = append(report.Results, res)
		if res.Error != "" {
			failed = append(failed, id)
		}
		if opts.Sink != nil {
			if err := opts.Sink(res); err != nil {
				failed = append(failed, id)
				continue
			}
		}
		if opts.OutDir != "" && res.Error == "" {
			if err := writeResultFile(opts.OutDir, format, res); err != nil {
				return exp.Report{}, err
			}
		}
	}
	manifest.Failed = failed
	manifest.WallSeconds = time.Since(manifest.Start).Seconds()
	report.Manifest = manifest
	if opts.OutDir != "" {
		if err := writeManifest(opts.OutDir, manifest); err != nil {
			return exp.Report{}, err
		}
	}
	return report, nil
}

// pending is one experiment's future result: res is valid once ready is
// closed.
type pending struct {
	ready chan struct{}
	res   exp.Result
}

// launch starts every identifier on a bounded worker pool and returns
// the per-identifier futures. A failing experiment is captured in its
// Result rather than cancelling the sweep, so one bad experiment cannot
// take the others down.
func (e *Engine) launch(ctx context.Context, ids []string, cfg exp.Configs) []pending {
	results := make([]pending, len(ids))
	for i := range results {
		results[i].ready = make(chan struct{})
	}
	idxs := make([]int, len(ids))
	for i := range idxs {
		idxs[i] = i
	}
	go func() {
		finished := make([]bool, len(ids))
		_, _ = parallel.Sweep(ctx, idxs, func(ctx context.Context, i int) (struct{}, error) {
			start := time.Now()
			tabs, err := e.lab.Run(ctx, ids[i], cfg)
			res := exp.Result{ID: ids[i], Tables: tabs, ElapsedSeconds: time.Since(start).Seconds()}
			if err != nil {
				res.Error = err.Error()
				res.Tables = nil
			}
			results[i].res = res
			finished[i] = true
			close(results[i].ready)
			return struct{}{}, nil
		}, parallel.Workers(e.par))
		// On cancellation some identifiers are never dispatched; release
		// the consumer with the context's error so it cannot block. Sweep
		// has returned, so no worker still touches finished/results.
		for i := range ids {
			if !finished[i] {
				results[i].res = exp.Result{ID: ids[i], Error: ctx.Err().Error()}
				close(results[i].ready)
			}
		}
	}()
	return results
}

// writeResultFile mirrors one result into dir as <id>.<ext>.
func writeResultFile(dir, format string, res exp.Result) error {
	ext := map[string]string{"table": "txt", "csv": "csv", "json": "json"}[format]
	f, err := os.Create(filepath.Join(dir, res.ID+"."+ext))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Write(f, format); err != nil {
		return err
	}
	return f.Close()
}

// writeManifest writes the run manifest as dir/manifest.json.
func writeManifest(dir string, m obs.Manifest) error {
	f, err := os.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// Canonical strips a report's wall-clock-dependent fields — manifest
// start/wall time, build environment and per-result elapsed seconds —
// leaving exactly the simulation payload. Two runs of one scenario are
// deterministic, so their canonical forms must be byte-identical
// however they were driven (batch CLI, daemon, any parallelism); the
// daemon-vs-batch determinism test pins this.
func Canonical(r exp.Report) exp.Report {
	r.Manifest = obs.Manifest{
		Tool:          "canonical",
		SchemaVersion: r.Manifest.SchemaVersion,
		Args:          r.Manifest.Args,
		Seed:          r.Manifest.Seed,
		Experiments:   r.Manifest.Experiments,
		Failed:        r.Manifest.Failed,
	}
	out := make([]exp.Result, len(r.Results))
	copy(out, r.Results)
	for i := range out {
		out[i].ElapsedSeconds = 0
	}
	r.Results = out
	return r
}
