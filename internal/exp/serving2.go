package exp

import (
	"context"
	"fmt"

	"facil/internal/engine"
	"facil/internal/parallel"
	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// Serving2Config parameterizes the event-driven cooperative serving
// sweep: arrival rate x replica count x lane-scheduling mode.
type Serving2Config struct {
	// Rates are the offered loads in queries/second.
	Rates []float64
	// Replicas are the device-fleet sizes swept.
	Replicas []int
	// Modes are the lane schedulers compared (serial baseline, FACIL
	// cooperative, re-layout hybrid).
	Modes []serve.Mode
	// Queries, Seed and Workload shape the traffic of every point.
	Queries  int
	Seed     int64
	Workload workload.Spec
	// QueueCap bounds the admission queue (0 = unbounded).
	QueueCap int
	// DeadlineTTLT is the goodput SLO in seconds (0 = none).
	DeadlineTTLT float64
}

// DefaultServing2Config mirrors the old serving extension's traffic
// (Alpaca arrivals on the Jetson) with a bounded queue and a TTLT SLO.
func DefaultServing2Config() Serving2Config {
	return Serving2Config{
		Rates:        []float64{0.2, 0.5},
		Replicas:     []int{1, 2},
		Modes:        serve.Modes(),
		Queries:      120,
		Seed:         11,
		Workload:     workload.AlpacaSpec(),
		QueueCap:     64,
		DeadlineTTLT: 20,
	}
}

// Serving2Kind maps a scheduling mode to the design whose latency model
// drives it: the re-layout hybrid is the paper's baseline, everything
// else runs FACIL (one weight copy, both processors).
func Serving2Kind(m serve.Mode) engine.Kind {
	if m == serve.RelayoutHybrid {
		return engine.HybridStatic
	}
	return engine.FACIL
}

// serving2Point is one (mode, rate, replicas) cell of the grid.
type serving2Point struct {
	mode     serve.Mode
	rate     float64
	replicas int
}

// serving2Points enumerates the grid mode-major so related rows group
// together in the rendered table.
func serving2Points(cfg Serving2Config) []serving2Point {
	var points []serving2Point
	for _, m := range cfg.Modes {
		for _, r := range cfg.Rates {
			for _, rep := range cfg.Replicas {
				points = append(points, serving2Point{mode: m, rate: r, replicas: rep})
			}
		}
	}
	return points
}

// Serving2Compute evaluates the full grid. Every point owns its arrival
// process (the RNG is seeded inside serve.Run), so points are
// independent sweep units and results are byte-identical at any
// parallelism. When the lab carries a tracer, every point records its
// timeline into it on a disjoint, deterministic pid block (labelled
// "mode rate xreplicas" in the trace), so one Perfetto file shows the
// whole sweep side by side.
func (l *Lab) Serving2Compute(ctx context.Context, cfg Serving2Config) ([]serve.Metrics, error) {
	s, err := l.System(soc.Jetson)
	if err != nil {
		return nil, err
	}
	points := serving2Points(cfg)
	// Pid blocks are assigned up front (replicas+1 tracks per point:
	// the replicas plus the admission-queue counter), keeping traces
	// deterministic at any sweep parallelism.
	pidBase := make([]int64, len(points))
	var next int64
	for i, pt := range points {
		pidBase[i] = next
		next += int64(pt.replicas) + 1
	}
	return parallel.Sweep(ctx, indexes(len(points)), func(ctx context.Context, i int) (serve.Metrics, error) {
		if err := ctx.Err(); err != nil {
			return serve.Metrics{}, err
		}
		pt := points[i]
		return serve.Run(s, serve.SimConfig{
			Mode:         pt.mode,
			Kind:         Serving2Kind(pt.mode),
			Replicas:     pt.replicas,
			ArrivalRate:  pt.rate,
			Queries:      cfg.Queries,
			Workload:     cfg.Workload,
			Seed:         cfg.Seed,
			QueueCap:     cfg.QueueCap,
			DeadlineTTLT: cfg.DeadlineTTLT,
			Tracer:       l.tracer,
			TracePIDBase: pidBase[i],
			TraceLabel:   fmt.Sprintf("%s %.2fq/s x%d", pt.mode, pt.rate, pt.replicas),
		})
	}, l.sweepOpts("serving2")...)
}

// indexes returns [0, 1, ..., n).
func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Serving2 renders the cooperative-serving comparison table.
func (l *Lab) Serving2(ctx context.Context, cfg Serving2Config) (Table, error) {
	mets, err := l.Serving2Compute(ctx, cfg)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:    "serving2",
		Title: "Extension: event-driven SoC/PIM cooperative serving (Jetson, " + cfg.Workload.Name + " traffic)",
		Header: []string{
			"mode", "rate", "replicas", "TTFT p50", "TTFT p99", "TBT p99",
			"TTLT p95", "throughput", "goodput", "rejected", "util SoC/PIM", "mean depth",
		},
		Notes: []string{
			fmt.Sprintf("%d queries/point, queue cap %d, TTLT SLO %.0f s; decode quantum %d steps",
				cfg.Queries, cfg.QueueCap, cfg.DeadlineTTLT, serve.DefaultPreemptSteps),
			"serial mode reproduces the legacy closed-form queue (see serve.TestSerialMatchesLegacySimulate)",
		},
	}
	points := serving2Points(cfg)
	for i, m := range mets {
		tab.Rows = append(tab.Rows, []string{
			m.Mode.String(),
			fmt.Sprintf("%.2f q/s", points[i].rate),
			fmt.Sprintf("%d", m.Replicas),
			ms(m.TTFT.P50),
			ms(m.TTFT.P99),
			ms(m.TBT.P99),
			ms(m.TTLT.P95),
			fmt.Sprintf("%.3f q/s", m.ThroughputQPS),
			fmt.Sprintf("%.3f q/s", m.GoodputQPS),
			fmt.Sprintf("%d", m.Rejected),
			fmt.Sprintf("%s/%s", pc(m.SoCUtilization), pc(m.PIMUtilization)),
			fmt.Sprintf("%.2f", m.QueueDepth.Mean()),
		})
	}
	return tab, nil
}
