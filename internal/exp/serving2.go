package exp

import (
	"context"
	"fmt"

	"facil/internal/engine"
	"facil/internal/serve"
	"facil/internal/workload"
)

// Serving2Config parameterizes the event-driven cooperative serving
// sweep on Alpaca traffic: arrival rate x replica count x
// lane-scheduling mode.
type Serving2Config struct {
	// Rates are the offered loads in queries/second.
	Rates []float64
	// Replicas are the device-fleet sizes swept.
	Replicas []int
	// Modes are the lane schedulers compared (serial baseline, FACIL
	// cooperative, re-layout hybrid).
	Modes []serve.Mode
	// Queries and Seed shape the traffic of every point.
	Queries int
	Seed    int64
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
		QueueCap:     64,
		DeadlineTTLT: 20,
	}
}

// serving2Kind maps a scheduling mode to the design whose latency model
// drives it: the re-layout hybrid is the paper's baseline, everything
// else runs FACIL (one weight copy, both processors).
func serving2Kind(m serve.Mode) engine.Kind {
	if m == serve.RelayoutHybrid {
		return engine.HybridStatic
	}
	return engine.FACIL
}

// simConfigs enumerates the grid mode-major so related rows group
// together in the rendered table. Every point is traced under a
// "mode rate xreplicas" label when the lab carries a tracer, so one
// Perfetto file shows the whole sweep side by side.
func (cfg Serving2Config) simConfigs() []serve.SimConfig {
	var cfgs []serve.SimConfig
	for _, m := range cfg.Modes {
		for _, r := range cfg.Rates {
			for _, rep := range cfg.Replicas {
				cfgs = append(cfgs, serve.SimConfig{
					Mode:         m,
					Kind:         serving2Kind(m),
					Replicas:     rep,
					ArrivalRate:  r,
					Queries:      cfg.Queries,
					Workload:     workload.AlpacaSpec(),
					Seed:         cfg.Seed,
					QueueCap:     cfg.QueueCap,
					DeadlineTTLT: cfg.DeadlineTTLT,
					TraceLabel:   fmt.Sprintf("%s %.2fq/s x%d", m, r, rep),
				})
			}
		}
	}
	return cfgs
}

// Serving2 renders the cooperative-serving comparison table.
func (l *Lab) Serving2(ctx context.Context, cfg Serving2Config) (Table, error) {
	cfgs := cfg.simConfigs()
	mets, err := l.serveSweep(ctx, "serving2", cfgs)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:    "serving2",
		Title: "Extension: event-driven SoC/PIM cooperative serving (Jetson, " + workload.AlpacaSpec().Name + " traffic)",
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
	for i, m := range mets {
		tab.Rows = append(tab.Rows, []string{
			m.Mode.String(),
			fmt.Sprintf("%.2f q/s", cfgs[i].ArrivalRate),
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
