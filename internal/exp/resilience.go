package exp

import (
	"context"
	"fmt"

	"facil/internal/fault"
	"facil/internal/serve"
	"facil/internal/workload"
)

// ResilienceConfig parameterizes the fault-injection sweep: lane-fault
// rate x degradation policy x scheduling mode under one reproducible
// fault scenario per cell. The traffic (Alpaca arrivals at
// resilienceRate on resilienceReplicas devices) and the rest of the
// fault scenario are fixed.
type ResilienceConfig struct {
	// Modes are the two-lane schedulers compared (Serial cannot host
	// the fault model).
	Modes []serve.Mode
	// Policies are the degradation responses swept.
	Policies []serve.Policy
	// LaneMTBFs are the mean times between PIM-lane failures swept, in
	// seconds (the fault-rate axis; smaller = more faults).
	LaneMTBFs []float64
	// FaultSeed drives the fault scenario (independent of traffic Seed)
	// so every policy faces the same fault schedule.
	FaultSeed int64
	// Queries and Seed shape the traffic.
	Queries int
	Seed    int64
	// QueueCap and DeadlineTTLT mirror the serve.SimConfig knobs of
	// every cell.
	QueueCap     int
	DeadlineTTLT float64
}

// The resilience sweep's fixed traffic, device and fault-scenario
// parameters: a mid-run thermal window derating DRAM by the measured
// refresh-doubling ratio, a trickle of PTE MapID corruption, and client
// retry and circuit-breaker budgets.
const (
	resilienceRate             float64 = 0.3
	resilienceReplicas                 = 2
	resilienceLaneMTTR         float64 = 5
	resilienceMapIDCorruptRate float64 = 0.02
	resilienceMaxRetries               = 3
	resilienceBreakerThreshold         = 3
)

// resilienceThermal is the thermal-throttle window of every cell.
var resilienceThermal = []fault.Window{{Start: 40, End: 100}}

// DefaultResilienceConfig exercises the full degradation story: both
// cooperative modes, all three policies, and a calm and a hostile
// fault rate.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Modes:        []serve.Mode{serve.Cooperative, serve.RelayoutHybrid},
		Policies:     serve.Policies(),
		LaneMTBFs:    []float64{60, 15},
		FaultSeed:    99,
		Queries:      120,
		Seed:         11,
		QueueCap:     32,
		DeadlineTTLT: 30,
	}
}

// simConfigs enumerates the grid mode-major, then fault rate, then
// policy — so each fault rate's policy escalation reads as consecutive
// rows. Policies within one (mode, MTBF) block share the fault scenario
// byte-for-byte (same FaultSeed), so the comparison isolates the
// degradation response, not the fault schedule.
func (cfg ResilienceConfig) simConfigs() []serve.SimConfig {
	var cfgs []serve.SimConfig
	for _, m := range cfg.Modes {
		for _, mtbf := range cfg.LaneMTBFs {
			for _, p := range cfg.Policies {
				cfgs = append(cfgs, serve.SimConfig{
					Mode:             m,
					Kind:             serving2Kind(m),
					Replicas:         resilienceReplicas,
					ArrivalRate:      resilienceRate,
					Queries:          cfg.Queries,
					Workload:         workload.AlpacaSpec(),
					Seed:             cfg.Seed,
					QueueCap:         cfg.QueueCap,
					DeadlineTTLT:     cfg.DeadlineTTLT,
					MaxRetries:       resilienceMaxRetries,
					BreakerThreshold: resilienceBreakerThreshold,
					Policy:           p,
					Faults: fault.Scenario{
						Seed:             cfg.FaultSeed,
						LaneMTBF:         mtbf,
						LaneMTTR:         resilienceLaneMTTR,
						Thermal:          resilienceThermal,
						MapIDCorruptRate: resilienceMapIDCorruptRate,
					},
					TraceLabel: fmt.Sprintf("%s %s mtbf%g", m, p, mtbf),
				})
			}
		}
	}
	return cfgs
}

// Resilience renders the fault-injection comparison table: how much
// goodput each degradation policy preserves under the same fault
// schedule.
func (l *Lab) Resilience(ctx context.Context, cfg ResilienceConfig) (Table, error) {
	cfgs := cfg.simConfigs()
	mets, err := l.serveSweep(ctx, "resilience", cfgs)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID: "resilience",
		Title: "Extension: graceful degradation under PIM-lane faults (Jetson, " +
			workload.AlpacaSpec().Name + " traffic)",
		Header: []string{
			"mode", "policy", "lane MTBF", "completed", "failed", "degraded",
			"failed over", "retries", "goodput", "availability", "lane MTTR", "TTLT p95",
		},
		Notes: []string{
			fmt.Sprintf("%d queries/point at %.2f q/s, %d replicas, queue cap %d, TTLT SLO %.0f s, retry budget %d, breaker threshold %d",
				cfg.Queries, resilienceRate, resilienceReplicas, cfg.QueueCap, cfg.DeadlineTTLT, resilienceMaxRetries, resilienceBreakerThreshold),
			fmt.Sprintf("lane MTTR %.0f s; thermal windows %v derate DRAM by the measured refresh-doubling ratio; MapID corruption rate %.2f",
				resilienceLaneMTTR, resilienceThermal, resilienceMapIDCorruptRate),
			"goodput is the fraction of offered queries completed within the SLO (per-second rates would reward dropping the backlog)",
			"all policies within one (mode, MTBF) block face a byte-identical fault schedule",
		},
	}
	for i, m := range mets {
		tab.Rows = append(tab.Rows, []string{
			m.Mode.String(),
			cfgs[i].Policy.String(),
			fmt.Sprintf("%.0f s", cfgs[i].Faults.LaneMTBF),
			fmt.Sprintf("%d", m.Completed),
			fmt.Sprintf("%d", m.Failed),
			fmt.Sprintf("%d", m.Degraded),
			fmt.Sprintf("%d", m.FailedOver),
			fmt.Sprintf("%d", m.Retries),
			pc(float64(m.SLOMet) / float64(m.Arrived)),
			pc(m.Availability),
			ms(m.LaneMTTR),
			ms(m.TTLT.P95),
		})
	}
	return tab, nil
}
