// Package exp regenerates every table and figure of the paper's
// evaluation (plus the motivation figures) from the simulation stack.
// Each experiment returns structured rows and renders the same series the
// paper reports; EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"context"
	"fmt"
	"strings"

	"facil/internal/engine"
	"facil/internal/llm"
	"facil/internal/obs"
	"facil/internal/parallel"
	"facil/internal/soc"
)

// Table is a rendered experiment result: the typed row/column model
// every experiment produces, rendered as aligned text (String), CSV
// (WriteCSV) or JSON (the struct marshals directly; see EXPERIMENTS.md
// "Machine-readable output" for the schema).
type Table struct {
	// ID is a stable machine-readable slug ("fig13", "fig14/jetson",
	// "ablations/row-policy") identifying the table across runs; the
	// text renderer ignores it.
	ID string `json:"id,omitempty"`
	// Title is the human-readable heading.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows holds the rendered cells, row-major.
	Rows [][]string `json:"rows"`
	// Notes carries caveats (scaling, substitutions).
	Notes []string `json:"notes,omitempty"`
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// PlatformModel returns the paper's model assignment for a platform.
func PlatformModel(p soc.Platform) llm.Model {
	switch p.Name {
	case soc.IdeaPad.Name:
		return llm.OPT_6_7B()
	case soc.IPhone.Name:
		return llm.Phi1_5()
	default:
		return llm.Llama3_8B()
	}
}

// ProgressFunc observes sweep progress: done of total points finished
// for the named experiment. Calls are serialized per sweep but may come
// from different experiments concurrently, so implementations must be
// safe for concurrent use.
type ProgressFunc func(experiment string, done, total int)

// Lab caches one engine.System per platform so experiments share the
// (expensive) simulation caches, and carries the sweep configuration
// (worker bound, progress sink) every experiment runs under.
//
// A Lab is safe for concurrent use once configured: Run and the
// experiment methods may be called from multiple goroutines, and each
// ported experiment internally fans its points out over a bounded worker
// pool. Configure SetParallelism/SetProgress before the first Run; they
// are not synchronized against in-flight experiments.
type Lab struct {
	cfg      engine.Config
	par      int
	progress ProgressFunc
	tracer   *obs.Tracer

	// systems holds the stacks by platform name, and by class key for
	// clusterSystem's MAC-interval overrides.
	systems parallel.Flight[string, *engine.System]
}

// NewLab builds an empty lab.
func NewLab(cfg engine.Config) *Lab {
	return &Lab{cfg: cfg}
}

// SetParallelism bounds the worker pool of every sweep the lab runs:
// 1 forces serial execution, 0 (the default) selects GOMAXPROCS.
// Results are byte-identical at any setting.
func (l *Lab) SetParallelism(n int) { l.par = n }

// SetProgress installs a progress observer for every sweep (nil disables).
func (l *Lab) SetProgress(fn ProgressFunc) { l.progress = fn }

// SetTracer attaches an observability tracer the tracing-aware
// experiments (serving2) record their timelines into; nil (the
// default) disables tracing. Like the other knobs, configure it before
// the first Run. The tracer is safe for concurrent sweep points.
func (l *Lab) SetTracer(tr *obs.Tracer) { l.tracer = tr }

// System returns (building on first use) the shared stack for a
// platform. The returned System is goroutine-safe; sweep points of the
// same platform share it and its memoization caches.
func (l *Lab) System(p soc.Platform) (*engine.System, error) {
	return l.systems.Do(p.Name, func() (*engine.System, error) {
		return engine.NewSystem(p, PlatformModel(p), l.cfg)
	})
}

// sweepOpts assembles the parallel options for one experiment's sweep.
func (l *Lab) sweepOpts(experiment string) []parallel.Option {
	opts := []parallel.Option{parallel.Workers(l.par)}
	if fn := l.progress; fn != nil {
		opts = append(opts, parallel.Progress(func(done, total int) {
			fn(experiment, done, total)
		}))
	}
	return opts
}

// sweep fans fn out over points with the lab's worker bound and progress
// sink; results land by point index (byte-identical to a serial run).
func sweep[P, R any](ctx context.Context, l *Lab, experiment string, points []P, fn func(ctx context.Context, point P) (R, error)) ([]R, error) {
	return parallel.Sweep(ctx, points, fn, l.sweepOpts(experiment)...)
}

// f1, pc, ms and x format numeric cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pc(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ms(v float64) string { return fmt.Sprintf("%.1f ms", 1e3*v) }
func x(v float64) string  { return fmt.Sprintf("%.2fx", v) }
