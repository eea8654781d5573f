package exp

import (
	"context"
	"fmt"

	"facil/internal/engine"
	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// servingPoint is one (arrival rate, design) cell of the serving table.
type servingPoint struct {
	rate float64
	kind engine.Kind
}

// Serving evaluates perceived responsiveness under load: queries arrive
// over time and wait FCFS for the device, so designs with longer TTLT run
// closer to saturation at the same offered rate and their *perceived*
// TTFT degrades super-linearly. Not a paper figure — an extension showing
// how FACIL's latency advantage compounds in a serving setting. Each
// (rate, design) cell is one single-replica Serial-mode serve.Run.
func (l *Lab) Serving(ctx context.Context) (Table, error) {
	s, err := l.System(soc.Jetson)
	if err != nil {
		return Table{}, err
	}
	var points []servingPoint
	for _, rate := range []float64{0.1, 0.3, 0.45} {
		for _, k := range []engine.Kind{engine.SoCOnly, engine.HybridStatic, engine.HybridDynamic, engine.FACIL} {
			points = append(points, servingPoint{rate, k})
		}
	}
	mets, err := sweep(ctx, l, "serving", points, func(ctx context.Context, p servingPoint) (serve.Metrics, error) {
		return serve.Run(s, serve.SimConfig{
			Mode:        serve.Serial,
			Kind:        p.kind,
			Replicas:    1,
			ArrivalRate: p.rate,
			Queries:     150,
			Workload:    workload.AlpacaSpec(),
			Seed:        11,
		})
	})
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
			fmt.Sprintf("%.2f q/s", points[i].rate),
			points[i].kind.String(),
			ms(m.TTFT.Mean),
			ms(m.TTFT.P99),
			pc(m.SoCUtilization),
			fmt.Sprintf("%d", m.MaxQueueDepth),
		})
	}
	return tab, nil
}
