package main

import (
	"sort"

	"facil/internal/exp"
	"facil/internal/stats"
)

// metricDef is one reported metric. End-to-end metrics carry Bound: the
// share of the parent commit's median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host-time metrics a user of facilsim or facild sees;
// setup_s exists so work moved out of the timed ops shows. Every bound
// is 25%: on the shared reference machine even calibrated times spread
// by up to 7% between runs of one commit, and a bound is kept at three
// times the spread.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "mean_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// layers are the cpu_share buckets, in report order (see layerOf).
var layers = []string{
	"dram", "engine", "soc", "llm", "relayout", "vm", "serve", "cluster",
	"tune", "stats", "exp", "daemon", "parallel", "bench", "runtime",
}

// perLayer lists every per-layer metric the traced run emits. A metric
// whose layer a workload does not exercise reads 0 there.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, l := range layers {
		add(l+".cpu_share", "%", "lower")
	}
	add("dram.requests_per_op", "count", "lower")
	add("dram.sim_cycles_per_op", "cycles", "lower")
	add("dram.host_ns_per_request", "ns", "lower")
	add("serve.events_per_op", "count", "lower")
	add("serve.host_ns_per_event", "ns", "lower")
	add("serve.device_ns_per_query", "ns", "lower")
	add("serve.rejected_per_op", "count", "lower")
	add("serve.failed_per_op", "count", "lower")
	add("cluster.ns_per_query", "ns", "lower")
	add("cluster.ns_per_barrier", "ns", "lower")
	add("cluster.barriers_per_op", "count", "lower")
	add("cluster.stolen_per_op", "count", "lower")
	add("cluster.shed_per_op", "count", "lower")
	add("cluster.overhead_x", "x", "lower")
	add("cluster.steal_overhead_x", "x", "lower")
	add("tune.capture_s", "s", "lower")
	add("tune.search_s", "s", "lower")
	add("tune.revalidate_s", "s", "lower")
	add("tune.evaluated_per_op", "count", "higher")
	add("tune.est_ns_per_candidate", "ns", "lower")
	add("tune.fullsim_ms_per_candidate", "ms", "lower")
	add("tune.est_speedup_x", "x", "higher")
	for _, id := range exp.AllIDs {
		add("exp."+id+"_s", "s", "lower")
	}
	add("daemon.queue_wait_p50_s", "s", "lower")
	add("daemon.exec_p50_s", "s", "lower")
	add("daemon.http_overhead_p50_ms", "ms", "lower")
	add("daemon.metrics_get_p50_ms", "ms", "lower")
	add("daemon.metrics_get_tail_ms", "ms", "lower")
	add("daemon.metrics_late_max_ms", "ms", "lower")
	add("daemon.runs_retained", "count", "lower")
	add("parallel.speedup_x", "x", "higher")
	add("runtime.cpu_util", "%", "higher")
	add("runtime.alloc_mb_per_op", "MB", "lower")
	add("runtime.gc_cycles_per_op", "count", "lower")
	add("runtime.gc_pause_ms_per_op", "ms", "lower")
	add("trace.overhead_x", "x", "lower")
	return defs
}

// median is the 50th percentile (0 for no samples).
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(xs, n=4), so the
// spreads facilbench prints match those computed from its JSON lines.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentiles are the candidate tail percentiles, in per mille.
var tailPercentiles = []int{999, 990, 950, 900, 750}

// tailPercentile returns the highest candidate percentile with at least
// ten of n samples beyond it, and false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	for _, pm := range tailPercentiles {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}
