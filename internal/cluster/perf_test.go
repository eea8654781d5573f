package cluster

import (
	"context"
	"runtime"
	"testing"

	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// clusterBenchConfig is a small faulted fleet under enough load that the
// steal path does real work: round-robin piles depth onto the slow
// devices, so the re-route phase migrates continuously rather than
// no-oping (the benchmark's default-fleet workload rarely steals).
func clusterBenchConfig(steal bool) Config {
	return Config{
		Strategy:               RoundRobin,
		ArrivalRate:            4,
		Queries:                2000,
		Workload:               workload.AlpacaSpec(),
		Seed:                   7,
		SyncInterval:           5,
		QueueCap:               8,
		DeadlineTTLT:           30,
		Policy:                 serve.PolicySoCFallback,
		BreakerThreshold:       2,
		BreakerCooldown:        60,
		DeviceBreakerThreshold: 3,
		FaultMTBF:              120,
		FaultMTTR:              20,
		FaultFraction:          0.5,
		FaultSeed:              99,
		Steal:                  steal,
		StealThreshold:         6,
	}
}

// fleetBenchConfig routes latency-weighted over the 104-device mix at
// the cluster experiment's defaults (a quarter query per
// device-second, a fifth of the fleet faulted, latency-scored
// stealing) on a fifth of its queries.
func fleetBenchConfig() Config {
	return Config{
		Strategy:               LatencyWeighted,
		ArrivalRate:            26,
		Queries:                20000,
		Workload:               workload.AlpacaSpec(),
		Seed:                   11,
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
		Steal:                  true,
		StealThreshold:         12,
		LatencySteal:           true,
	}
}

// BenchmarkClusterRun measures a full cluster.Run per routed query
// (fleet construction excluded). On the small faulted fleet it routes
// round-robin serially without and with the barrier re-route (steal)
// phase — the ratio of the two is the price of the migration machinery
// on a fleet that actually steals — and steal-par runs the stealing
// case with one device shard per GOMAXPROCS worker. fleet-latency
// routes latency-weighted over a 4×26-device mix, the cluster
// experiment's fleet scale, where each arrival's pick ranges over 104
// devices.
func BenchmarkClusterRun(b *testing.B) {
	small, err := NewFleet([]DeviceClass{
		{Platform: soc.Jetson, Count: 2},
		{Platform: soc.Macbook, Count: 2},
		{Platform: soc.IPhone, Count: 4},
	}, testSystem)
	if err != nil {
		b.Fatal(err)
	}
	big, err := NewFleet([]DeviceClass{
		{Platform: soc.Jetson, Count: 26},
		{Platform: soc.Macbook, Count: 26},
		{Platform: soc.IdeaPad, Count: 26, MACIntervalCycles: 8},
		{Platform: soc.IPhone, Count: 26},
	}, testSystem)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		fl   *Fleet
		cfg  Config
		par  int
	}{
		{"plain", small, clusterBenchConfig(false), 1},
		{"steal", small, clusterBenchConfig(true), 1},
		{"steal-par", small, clusterBenchConfig(true), runtime.GOMAXPROCS(0)},
		{"fleet-latency", big, fleetBenchConfig(), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			cfg.Parallelism = bc.par
			// One warm run so the shared latency caches don't bill the
			// first iteration.
			if _, err := Run(context.Background(), bc.fl, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), bc.fl, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.Queries), "ns/query")
		})
	}
}
