package exp

import (
	"context"
	"fmt"

	"facil/internal/engine"
	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// serveSweep runs one serve.Run per config on the Jetson system, fanned
// out over the lab's worker pool. Every config owns its arrival and
// fault RNGs (seeded inside serve.Run), so results are byte-identical at
// any parallelism. Configs that set a TraceLabel record into the lab's
// tracer on disjoint pid blocks assigned up front in config order
// (Replicas+1 tracks each: the replicas plus the admission-queue
// counter), so the set of traced events is the same at any
// parallelism. The trace file's bytes are fixed only at parallelism 1:
// concurrent sims append to the shared tracer as they run, and events
// with equal timestamps keep that arrival order when written.
func (l *Lab) serveSweep(ctx context.Context, experiment string, cfgs []serve.SimConfig) ([]serve.Metrics, error) {
	s, err := l.System(soc.Jetson)
	if err != nil {
		return nil, err
	}
	var next int64
	for i := range cfgs {
		if cfgs[i].TraceLabel != "" {
			cfgs[i].Tracer, cfgs[i].TracePIDBase = l.tracer, next
			next += int64(cfgs[i].Replicas) + 1
		}
	}
	return sweep(ctx, l, experiment, cfgs, func(ctx context.Context, c serve.SimConfig) (serve.Metrics, error) {
		return serve.Run(s, c)
	})
}

// Serving evaluates perceived responsiveness under load: queries arrive
// over time and wait FCFS for the device, so designs with longer TTLT run
// closer to saturation at the same offered rate and their *perceived*
// TTFT degrades super-linearly. Not a paper figure — an extension showing
// how FACIL's latency advantage compounds in a serving setting. Each
// (rate, design) cell is one single-replica Serial-mode serve.Run.
func (l *Lab) Serving(ctx context.Context) (Table, error) {
	var cfgs []serve.SimConfig
	for _, rate := range []float64{0.1, 0.3, 0.45} {
		for _, k := range []engine.Kind{engine.SoCOnly, engine.HybridStatic, engine.HybridDynamic, engine.FACIL} {
			cfgs = append(cfgs, serve.SimConfig{
				Mode:        serve.Serial,
				Kind:        k,
				Replicas:    1,
				ArrivalRate: rate,
				Queries:     150,
				Workload:    workload.AlpacaSpec(),
				Seed:        11,
			})
		}
	}
	mets, err := l.serveSweep(ctx, "serving", cfgs)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:    "serving",
		Title: "Extension: perceived latency under serving load (Jetson, Alpaca traffic)",
		Header: []string{
			"arrival rate", "design", "perceived TTFT (mean)", "perceived TTFT (p99)",
			"utilization", "max queue",
		},
		Notes: []string{
			"perceived TTFT = queueing wait + TTFT; FCFS single device, 150 queries",
		},
	}
	for i, m := range mets {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%.2f q/s", cfgs[i].ArrivalRate),
			cfgs[i].Kind.String(),
			ms(m.TTFT.Mean),
			ms(m.TTFT.P99),
			pc(m.SoCUtilization),
			fmt.Sprintf("%d", m.MaxQueueDepth),
		})
	}
	return tab, nil
}
