package exp

import (
	"context"
	"fmt"
	"slices"

	"facil/internal/soc"
	"facil/internal/workload"
)

// Configs carries the parameters of every configurable experiment, one
// field per experiment (Dataset serves fig15 and fig16). Each registry
// entry reads only its own field.
type Configs struct {
	// Table1 parameterizes tab1.
	Table1 Table1Config
	// Dataset parameterizes fig15 and fig16.
	Dataset DatasetConfig
	// Serving2 parameterizes serving2.
	Serving2 Serving2Config
	// Resilience parameterizes resilience.
	Resilience ResilienceConfig
	// Cluster parameterizes cluster.
	Cluster ClusterConfig
	// MapTune parameterizes maptune.
	MapTune MapTuneConfig
}

// DefaultConfigs returns every experiment's default parameters: the
// configuration the paper tables and EXPERIMENTS.md excerpts use.
func DefaultConfigs() Configs {
	return Configs{
		Table1:     DefaultTable1Config(),
		Dataset:    DefaultDatasetConfig(),
		Serving2:   DefaultServing2Config(),
		Resilience: DefaultResilienceConfig(),
		Cluster:    DefaultClusterConfig(),
		MapTune:    DefaultMapTuneConfig(),
	}
}

// Run executes an experiment by its DESIGN.md identifier with the
// parameters in cfg and returns the rendered tables. Ported experiments
// fan their sweep points out over the lab's worker pool and honor ctx
// cancellation between points.
func (l *Lab) Run(ctx context.Context, id string, cfg Configs) ([]Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(ctx, l, cfg)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, AllIDs)
}

// runner produces one experiment's tables under a cancellation context.
type runner func(ctx context.Context, l *Lab, cfg Configs) ([]Table, error)

// single adapts a ctx-aware single-table experiment.
func single(f func(ctx context.Context, l *Lab, cfg Configs) (Table, error)) runner {
	return func(ctx context.Context, l *Lab, cfg Configs) ([]Table, error) {
		t, err := f(ctx, l, cfg)
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
}

// serial adapts a context-free single-table experiment.
func serial(f func(l *Lab) (Table, error)) runner {
	return single(func(ctx context.Context, l *Lab, _ Configs) (Table, error) {
		if err := ctx.Err(); err != nil {
			return Table{}, err
		}
		return f(l)
	})
}

// static adapts a single-table experiment that needs no Lab.
func static(f func() (Table, error)) runner {
	return serial(func(*Lab) (Table, error) { return f() })
}

// experiment is one registry entry: identifier, one-line title and
// runner.
type experiment struct {
	id, title string
	run       runner
}

// experiments is the registry, in DESIGN.md order — the only dispatcher
// from an identifier to its tables.
var experiments = []experiment{
	{"fig2a", "decode time breakdown (motivation)", serial((*Lab).Fig2a)},
	{"fig2b", "GEMV utilization across PIM configs (motivation)", serial((*Lab).Fig2b)},
	{"fig3", "PIM speedup potential over SoC decode (motivation)", serial((*Lab).Fig3)},
	{"fig6", "TTFT increase from weight re-layout (motivation)", serial((*Lab).Fig6)},
	{"tab1", "huge-page load time under memory fragmentation", single(func(ctx context.Context, l *Lab, cfg Configs) (Table, error) {
		return l.Table1(ctx, cfg.Table1)
	})},
	{"tab2", "evaluated platforms and their PIM configurations", static(func() (Table, error) { return Table2(), nil })},
	{"tab3", "GEMM slowdown on the PIM-optimized layout", single(func(ctx context.Context, l *Lab, _ Configs) (Table, error) {
		return l.Table3(ctx, soc.LayoutSlowdownConfig{})
	})},
	{"fig13", "single-query TTFT speedup vs baselines", single(func(ctx context.Context, l *Lab, _ Configs) (Table, error) {
		return l.Fig13(ctx)
	})},
	{"fig14", "single-query TTLT speedup per platform", func(ctx context.Context, l *Lab, _ Configs) ([]Table, error) {
		return sweep(ctx, l, "fig14 platforms", soc.All(), func(ctx context.Context, p soc.Platform) (Table, error) {
			return l.Fig14(ctx, p)
		})
	}},
	{"fig15", "dataset TTFT distributions (Alpaca, autocomplete)", func(ctx context.Context, l *Lab, cfg Configs) ([]Table, error) {
		return l.datasetPair(ctx, cfg.Dataset, (*Lab).Fig15)
	}},
	{"fig16", "dataset TTLT distributions (Alpaca, autocomplete)", func(ctx context.Context, l *Lab, cfg Configs) ([]Table, error) {
		return l.datasetPair(ctx, cfg.Dataset, (*Lab).Fig16)
	}},
	{"maxmap", "largest MapID the mapping family needs", static(MaxMapID)},
	{"ablations", "eight design-choice ablation studies", func(ctx context.Context, l *Lab, _ Configs) ([]Table, error) {
		return l.Ablations(ctx)
	}},
	{"cosched", "SoC/PIM co-scheduled memory-controller interleaving", static(Cosched)},
	{"quant", "weight-quantization sensitivity", static(Quant)},
	{"pimstyle", "PIM microarchitecture style comparison", static(PIMStyle)},
	{"energy", "per-token energy model", serial((*Lab).Energy)},
	{"serving", "single-device FCFS serving queue under load", single(func(ctx context.Context, l *Lab, _ Configs) (Table, error) {
		return l.Serving(ctx)
	})},
	{"serving2", "event-driven cooperative serving sweep", single(func(ctx context.Context, l *Lab, cfg Configs) (Table, error) {
		return l.Serving2(ctx, cfg.Serving2)
	})},
	{"resilience", "fault-injection and degradation-policy sweep", single(func(ctx context.Context, l *Lab, cfg Configs) (Table, error) {
		return l.Resilience(ctx, cfg.Resilience)
	})},
	{"cluster", "fleet-scale heterogeneous serving with routing strategies", func(ctx context.Context, l *Lab, cfg Configs) ([]Table, error) {
		return l.Cluster(ctx, cfg.Cluster)
	}},
	{"maptune", "auto-tuned PA-to-DA mappings vs the fixed MapID family", func(ctx context.Context, l *Lab, cfg Configs) ([]Table, error) {
		return l.MapTune(ctx, cfg.MapTune)
	}},
}

// datasetPair evaluates a figure over both paper datasets.
func (l *Lab) datasetPair(ctx context.Context, cfg DatasetConfig, f func(*Lab, context.Context, workload.Spec, DatasetConfig) (Table, error)) ([]Table, error) {
	var out []Table
	for _, spec := range []workload.Spec{workload.AlpacaSpec(), workload.AutocompleteSpec()} {
		t, err := f(l, ctx, spec, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AllIDs is the DESIGN.md experiment order for "run everything",
// derived from the registry.
var AllIDs = func() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}()

// Info describes one registered experiment for listings: the identifier
// plus a one-line title. `facilsim -list` and the daemon's
// GET /experiments endpoint both render from Catalog, so the two
// listings cannot drift from the registry (or from each other).
type Info struct {
	// ID is the registry identifier ("fig13", "serving2", ...).
	ID string `json:"id"`
	// Title is the one-line human description.
	Title string `json:"title"`
}

// Catalog returns every registered experiment in DESIGN.md order with
// its one-line title — the single source for CLI and daemon listings.
func Catalog() []Info {
	out := make([]Info, len(experiments))
	for i, e := range experiments {
		out[i] = Info{ID: e.id, Title: e.title}
	}
	return out
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	return slices.Contains(AllIDs, id)
}
