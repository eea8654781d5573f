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

// BenchmarkClusterRun measures a full serial cluster.Run per routed
// query (fleet construction excluded) without and with the barrier
// re-route (steal) phase; the ratio of the two is the price of the
// migration machinery on a fleet that actually steals. steal-par runs
// the stealing case with one device shard per GOMAXPROCS worker.
func BenchmarkClusterRun(b *testing.B) {
	fl, err := NewFleet([]DeviceClass{
		{Platform: soc.Jetson, Count: 2},
		{Platform: soc.Macbook, Count: 2},
		{Platform: soc.IPhone, Count: 4},
	}, testSystem)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		steal bool
		par   int
	}{{"plain", false, 1}, {"steal", true, 1}, {"steal-par", true, runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := clusterBenchConfig(bc.steal)
			cfg.Parallelism = bc.par
			// One warm run so the shared latency caches don't bill the
			// first iteration.
			if _, err := Run(context.Background(), fl, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), fl, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.Queries), "ns/query")
		})
	}
}
