package exp

import (
	"context"
	"fmt"

	"facil/internal/cluster"
	"facil/internal/engine"
	"facil/internal/pim"
	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// ClusterConfig parameterizes the fleet-scale serving experiment: one
// heterogeneous device fleet, one arrival stream, and a sweep over
// balancing strategies — every strategy faces byte-identical arrivals,
// lengths, priority classes and fault schedules, so the comparison
// isolates routing.
type ClusterConfig struct {
	// Strategies are the balancing strategies swept (table rows).
	Strategies []cluster.StrategyKind
	// Fleet is the device-class roster (see cluster.ParseFleet for the
	// textual form).
	Fleet []cluster.DeviceClass
	// Rate is the cluster-wide offered load in queries/second; Queries,
	// Seed and Workload shape the traffic as in the other serving
	// sweeps.
	Rate     float64
	Queries  int
	Seed     int64
	Workload workload.Spec
	// SyncInterval, QueueCap, DeadlineTTLT, Policy and the breaker/
	// fault knobs mirror cluster.Config.
	SyncInterval           float64
	QueueCap               int
	DeadlineTTLT           float64
	Policy                 serve.Policy
	BreakerThreshold       int
	BreakerCooldown        float64
	DeviceBreakerThreshold int
	FaultMTBF              float64
	FaultMTTR              float64
	FaultFraction          float64
	FaultSeed              int64
	// Migration, when set, additionally runs every strategy with
	// cross-device work stealing enabled (cluster.Config.Steal): each
	// strategy contributes a second "+steal" summary row over the same
	// arrivals and fault schedules, so the table reads as a paired
	// with/without-migration comparison.
	Migration bool
	// StealThreshold is the in-system depth that triggers stealing from
	// a healthy device on the "+steal" rows (0 = breaker-driven
	// evacuation only; mirrors cluster.Config.StealThreshold).
	StealThreshold int
	// LatencySteal picks steal destinations by the TTFT-EWMA
	// expected-wait proxy instead of least-depth (mirrors
	// cluster.Config.LatencySteal).
	LatencySteal bool
}

// DefaultClusterConfig is the acceptance-scale fleet: 104 devices across
// the four platforms (26 each, the IdeaPad class carrying a derated PIM
// stack), 1e5 queries at 26 q/s — a quarter query per device-second —
// with a fifth of the fleet on a lane-fault diet and router health
// breakers armed.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Strategies: cluster.Strategies(),
		Fleet: []cluster.DeviceClass{
			{Platform: soc.Jetson, Count: 26},
			{Platform: soc.Macbook, Count: 26},
			{Platform: soc.IdeaPad, Count: 26, MACIntervalCycles: 8},
			{Platform: soc.IPhone, Count: 26},
		},
		Rate:                   26,
		Queries:                100000,
		Seed:                   11,
		Workload:               workload.AlpacaSpec(),
		SyncInterval:           5,
		QueueCap:               16,
		DeadlineTTLT:           30,
		Policy:                 serve.PolicySoCFallback,
		BreakerThreshold:       2,
		BreakerCooldown:        60,
		DeviceBreakerThreshold: 3,
		FaultMTBF:              900,
		FaultMTTR:              30,
		FaultFraction:          0.2,
		FaultSeed:              99,
		Migration:              true,
		StealThreshold:         12,
		LatencySteal:           true,
	}
}

// clusterSystem returns (building and caching on first use) the stack
// for one device class, sharing the lab's per-platform system when the
// class keeps the default PIM configuration and keying MAC-interval
// overrides separately.
func (l *Lab) clusterSystem(c cluster.DeviceClass) (*engine.System, error) {
	if c.MACIntervalCycles == 0 {
		return l.System(c.Platform)
	}
	key := fmt.Sprintf("%s/mac%d", c.Platform.Name, c.MACIntervalCycles)
	return l.systems.Do(key, func() (*engine.System, error) {
		cfg := l.cfg
		p := pim.DefaultAiM(c.Platform.Spec.Geometry)
		p.MACIntervalCycles = c.MACIntervalCycles
		cfg.PIM = &p
		return engine.NewSystem(c.Platform, PlatformModel(c.Platform), cfg)
	})
}

// clusterConfigs expands the strategy sweep into one cluster.Config per
// run (the runs are the sweep's unit of parallelism): with Migration on, each strategy runs plain and again
// with stealing, adjacent in the output so the rows read as paired
// comparisons.
func (cfg ClusterConfig) clusterConfigs() []cluster.Config {
	cfgs := make([]cluster.Config, 0, 2*len(cfg.Strategies))
	for _, k := range cfg.Strategies {
		c := cluster.Config{
			Strategy:               k,
			ArrivalRate:            cfg.Rate,
			Queries:                cfg.Queries,
			Workload:               cfg.Workload,
			Seed:                   cfg.Seed,
			SyncInterval:           cfg.SyncInterval,
			QueueCap:               cfg.QueueCap,
			DeadlineTTLT:           cfg.DeadlineTTLT,
			Policy:                 cfg.Policy,
			BreakerThreshold:       cfg.BreakerThreshold,
			BreakerCooldown:        cfg.BreakerCooldown,
			DeviceBreakerThreshold: cfg.DeviceBreakerThreshold,
			FaultMTBF:              cfg.FaultMTBF,
			FaultMTTR:              cfg.FaultMTTR,
			FaultFraction:          cfg.FaultFraction,
			FaultSeed:              cfg.FaultSeed,
			StealThreshold:         cfg.StealThreshold,
			LatencySteal:           cfg.LatencySteal,
		}
		cfgs = append(cfgs, c)
		if cfg.Migration {
			c.Steal = true
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// ClusterCompute evaluates every strategy over one shared fleet (twice
// per strategy — without and with stealing — when Migration is on). The
// runs are the sweep points and fan out over the lab's worker bound;
// each cluster.Run advances its devices on its own goroutine over the
// read-only Fleet, so the tables are byte-identical at any worker
// count.
func (l *Lab) ClusterCompute(ctx context.Context, cfg ClusterConfig) ([]cluster.Metrics, error) {
	fl, err := cluster.NewFleet(cfg.Fleet, l.clusterSystem)
	if err != nil {
		return nil, err
	}
	return sweep(ctx, l, "cluster", cfg.clusterConfigs(), func(ctx context.Context, c cluster.Config) (cluster.Metrics, error) {
		return cluster.Run(ctx, fl, c)
	})
}

// Cluster renders the fleet-scale routing comparison: a strategy
// summary table and a per-device-class breakdown.
func (l *Lab) Cluster(ctx context.Context, cfg ClusterConfig) ([]Table, error) {
	mets, err := l.ClusterCompute(ctx, cfg)
	if err != nil {
		return nil, err
	}
	devices := 0
	for _, c := range cfg.Fleet {
		devices += c.Count
	}
	summary := Table{
		ID: "cluster",
		Title: fmt.Sprintf("Extension: fleet-scale heterogeneous serving (%d devices, %s traffic)",
			devices, cfg.Workload.Name),
		Header: []string{
			"strategy", "routed", "stolen", "shed (i/s/b)", "completed", "rejected", "failed",
			"degraded", "health opens", "TTFT p50", "TTFT p99", "TTLT p95", "goodput", "makespan",
		},
		Notes: []string{
			fmt.Sprintf("%d queries at %.1f q/s cluster-wide; per-device queue cap %d, TTLT SLO %.0f s, telemetry barrier every %.0f s",
				cfg.Queries, cfg.Rate, cfg.QueueCap, cfg.DeadlineTTLT, cfg.SyncInterval),
			fmt.Sprintf("router health breakers: threshold %d, cooldown %.0f s; device policy %s",
				cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Policy),
			fmt.Sprintf("faults: %.0f%% of devices draw PIM-lane outages (MTBF %.0f s, MTTR %.0f s, seed %d)",
				100*cfg.FaultFraction, cfg.FaultMTBF, cfg.FaultMTTR, cfg.FaultSeed),
			"goodput is the fraction of offered queries completed within the SLO; shed splits by priority class (interactive/standard/batch)",
			"every strategy faces byte-identical arrivals, lengths, classes and fault schedules",
		},
	}
	if cfg.Migration {
		dest := "least-loaded destinations"
		if cfg.LatencySteal {
			dest = "destinations scored by TTFT-EWMA x (depth+1)"
		}
		summary.Notes = append(summary.Notes,
			fmt.Sprintf("\"+steal\" rows re-run the strategy with cross-device migration: barrier re-route phases evacuate breaker-open devices and steal queued work from devices deeper than %d in-system onto %s; stolen counts migrations (prefilled moves pay the KV handoff penalty)",
				cfg.StealThreshold, dest))
	}
	classes := Table{
		ID:     "cluster/classes",
		Title:  "Fleet breakdown by device class",
		Header: []string{"strategy", "class", "devices", "routed", "completed", "rejected", "TTFT p50", "TTFT p99", "PIM util", "availability"},
	}
	for _, m := range mets {
		label := m.Strategy.String()
		if m.Steal {
			label += "+steal"
		}
		summary.Rows = append(summary.Rows, []string{
			label,
			fmt.Sprintf("%d", m.Routed),
			fmt.Sprintf("%d", m.Stolen),
			fmt.Sprintf("%d/%d/%d", m.ShedByClass[cluster.Interactive], m.ShedByClass[cluster.Standard], m.ShedByClass[cluster.Batch]),
			fmt.Sprintf("%d", m.Completed),
			fmt.Sprintf("%d", m.Rejected),
			fmt.Sprintf("%d", m.Failed),
			fmt.Sprintf("%d", m.Degraded),
			fmt.Sprintf("%d", m.BreakerOpens),
			ms(m.TTFT.P50),
			ms(m.TTFT.P99),
			ms(m.TTLT.P95),
			pc(float64(m.SLOMet) / float64(m.Queries)),
			fmt.Sprintf("%.0f s", m.Makespan),
		})
		for _, pcm := range m.PerClass {
			classes.Rows = append(classes.Rows, []string{
				label,
				pcm.Class,
				fmt.Sprintf("%d", pcm.Devices),
				fmt.Sprintf("%d", pcm.Routed),
				fmt.Sprintf("%d", pcm.Completed),
				fmt.Sprintf("%d", pcm.Rejected),
				ms(pcm.TTFT.P50),
				ms(pcm.TTFT.P99),
				pc(pcm.PIMUtilization),
				pc(pcm.Availability),
			})
		}
	}
	return []Table{summary, classes}, nil
}
