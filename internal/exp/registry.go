package exp

import (
	"context"
	"fmt"
	"sort"

	"facil/internal/soc"
	"facil/internal/workload"
)

// Run executes an experiment by its DESIGN.md identifier and returns the
// rendered tables. Ported experiments fan their sweep points out over the
// lab's worker pool and honor ctx cancellation between points.
func (l *Lab) Run(ctx context.Context, id string) ([]Table, error) {
	runner, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	return runner(ctx, l)
}

// IDs lists the registered experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// runner produces one experiment's tables under a cancellation context.
type runner func(ctx context.Context, l *Lab) ([]Table, error)

// one adapts a serial (context-free) single-table experiment.
func one(f func(l *Lab) (Table, error)) runner {
	return func(ctx context.Context, l *Lab) ([]Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := f(l)
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
}

// onectx adapts a ctx-aware single-table experiment.
func onectx(f func(l *Lab, ctx context.Context) (Table, error)) runner {
	return func(ctx context.Context, l *Lab) ([]Table, error) {
		t, err := f(l, ctx)
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
}

var registry = map[string]runner{
	"fig2a": one((*Lab).Fig2a),
	"fig2b": one((*Lab).Fig2b),
	"fig3":  one((*Lab).Fig3),
	"fig6":  one((*Lab).Fig6),
	"tab1": onectx(func(l *Lab, ctx context.Context) (Table, error) {
		return l.Table1(ctx, DefaultTable1Config())
	}),
	"tab2": func(ctx context.Context, l *Lab) ([]Table, error) {
		return []Table{Table2()}, nil
	},
	"tab3": onectx(func(l *Lab, ctx context.Context) (Table, error) {
		return l.Table3(ctx, soc.LayoutSlowdownConfig{})
	}),
	"fig13": onectx((*Lab).Fig13),
	"fig14": func(ctx context.Context, l *Lab) ([]Table, error) {
		return sweep(ctx, l, "fig14 platforms", soc.All(), func(ctx context.Context, p soc.Platform) (Table, error) {
			return l.Fig14(ctx, p)
		})
	},
	"fig15": func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.datasetPair(ctx, (*Lab).Fig15)
	},
	"fig16": func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.datasetPair(ctx, (*Lab).Fig16)
	},
	"cosched": func(ctx context.Context, l *Lab) ([]Table, error) {
		t, err := Cosched()
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	},
	"quant": func(ctx context.Context, l *Lab) ([]Table, error) {
		t, err := Quant()
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	},
	"pimstyle": func(ctx context.Context, l *Lab) ([]Table, error) {
		t, err := PIMStyle()
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	},
	"energy": one((*Lab).Energy),
	"serving": onectx(func(l *Lab, ctx context.Context) (Table, error) {
		return l.Serving(ctx)
	}),
	"serving2": onectx(func(l *Lab, ctx context.Context) (Table, error) {
		return l.Serving2(ctx, DefaultServing2Config())
	}),
	"resilience": onectx(func(l *Lab, ctx context.Context) (Table, error) {
		return l.Resilience(ctx, DefaultResilienceConfig())
	}),
	"cluster": func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.Cluster(ctx, DefaultClusterConfig())
	},
	"maptune": func(ctx context.Context, l *Lab) ([]Table, error) {
		return l.MapTune(ctx, DefaultMapTuneConfig())
	},
	"maxmap": func(ctx context.Context, l *Lab) ([]Table, error) {
		t, err := MaxMapID()
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	},
	// The eight ablation studies run as sweep points of their own (each
	// internally fanning out further), reducing in the fixed table order.
	"ablations": func(ctx context.Context, l *Lab) ([]Table, error) {
		studies := []func(context.Context) (Table, error){
			func(ctx context.Context) (Table, error) { return l.AblationRelayoutPolicy() },
			l.AblationDynamicThreshold,
			l.AblationSchedulerWindow,
			l.AblationRowPolicy,
			l.AblationConventionalMapping,
			func(ctx context.Context) (Table, error) { return AblationXORHashing() },
			l.AblationGEMMStreams,
			l.AblationMACInterval,
		}
		return sweep(ctx, l, "ablations", studies, func(ctx context.Context, f func(context.Context) (Table, error)) (Table, error) {
			return f(ctx)
		})
	},
}

// datasetPair evaluates a figure over both paper datasets.
func (l *Lab) datasetPair(ctx context.Context, f func(*Lab, context.Context, workload.Spec, DatasetConfig) (Table, error)) ([]Table, error) {
	var out []Table
	for _, spec := range []workload.Spec{workload.AlpacaSpec(), workload.AutocompleteSpec()} {
		t, err := f(l, ctx, spec, DefaultDatasetConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AllIDs is the DESIGN.md experiment order for "run everything".
var AllIDs = []string{
	"fig2a", "fig2b", "fig3", "fig6",
	"tab1", "tab2", "tab3",
	"fig13", "fig14", "fig15", "fig16",
	"maxmap", "ablations",
	"cosched", "quant", "pimstyle", "energy", "serving", "serving2", "resilience",
	"cluster", "maptune",
}

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

// titles carries the one-line description of every registered
// experiment; TestCatalogCoversRegistry pins the 1:1 correspondence.
var titles = map[string]string{
	"fig2a":      "decode time breakdown (motivation)",
	"fig2b":      "GEMV utilization across PIM configs (motivation)",
	"fig3":       "PIM speedup potential over SoC decode (motivation)",
	"fig6":       "TTFT increase from weight re-layout (motivation)",
	"tab1":       "huge-page load time under memory fragmentation",
	"tab2":       "evaluated platforms and their PIM configurations",
	"tab3":       "GEMM slowdown on the PIM-optimized layout",
	"fig13":      "single-query TTFT speedup vs baselines",
	"fig14":      "single-query TTLT speedup per platform",
	"fig15":      "dataset TTFT distributions (Alpaca, autocomplete)",
	"fig16":      "dataset TTLT distributions (Alpaca, autocomplete)",
	"maxmap":     "largest MapID the mapping family needs",
	"ablations":  "eight design-choice ablation studies",
	"cosched":    "SoC/PIM co-scheduled memory-controller interleaving",
	"quant":      "weight-quantization sensitivity",
	"pimstyle":   "PIM microarchitecture style comparison",
	"energy":     "per-token energy model",
	"serving":    "single-device FCFS serving queue under load",
	"serving2":   "event-driven cooperative serving sweep",
	"resilience": "fault-injection and degradation-policy sweep",
	"cluster":    "fleet-scale heterogeneous serving with routing strategies",
	"maptune":    "auto-tuned PA-to-DA mappings vs the fixed MapID family",
}

// Catalog returns every registered experiment in DESIGN.md order with
// its one-line title — the single source for CLI and daemon listings.
func Catalog() []Info {
	out := make([]Info, 0, len(AllIDs))
	for _, id := range AllIDs {
		out = append(out, Info{ID: id, Title: titles[id]})
	}
	return out
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}
