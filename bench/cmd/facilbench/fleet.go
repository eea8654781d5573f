package main

import (
	"context"
	"fmt"
	"runtime"

	"facil/internal/cluster"
	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/pim"
	"facil/internal/serve"
)

// fleetSession drives cluster.Run over the cluster experiment's default
// fleet: 104 devices across the four platforms, a fifth of them on a
// lane-fault diet, routed latency-weighted with stealing on.
type fleetSession struct {
	lab   *exp.Lab
	ec    exp.ClusterConfig
	build cluster.SystemBuilder
	fl    *cluster.Fleet
	cfg   cluster.Config
	last  cluster.Metrics
}

func openFleet(_ context.Context, seed int64) (session, error) {
	ec := exp.DefaultClusterConfig()
	ec.Seed = seed
	ec.Strategies = []cluster.StrategyKind{cluster.LatencyWeighted}
	lab := exp.NewLab(engine.DefaultConfig())
	build := fleetSystems(lab)
	fl, err := cluster.NewFleet(ec.Fleet, build)
	if err != nil {
		return nil, err
	}
	return &fleetSession{
		lab: lab, ec: ec, build: build, fl: fl,
		cfg: cluster.Config{
			Strategy:               cluster.LatencyWeighted,
			ArrivalRate:            ec.Rate,
			Queries:                ec.Queries,
			Workload:               ec.Workload,
			Seed:                   ec.Seed,
			SyncInterval:           ec.SyncInterval,
			QueueCap:               ec.QueueCap,
			DeadlineTTLT:           ec.DeadlineTTLT,
			Policy:                 ec.Policy,
			BreakerThreshold:       ec.BreakerThreshold,
			BreakerCooldown:        ec.BreakerCooldown,
			DeviceBreakerThreshold: ec.DeviceBreakerThreshold,
			FaultMTBF:              ec.FaultMTBF,
			FaultMTTR:              ec.FaultMTTR,
			FaultFraction:          ec.FaultFraction,
			FaultSeed:              ec.FaultSeed,
			Steal:                  true,
			StealThreshold:         ec.StealThreshold,
			LatencySteal:           ec.LatencySteal,
			Parallelism:            runtime.GOMAXPROCS(0),
		},
	}, nil
}

// fleetSystems builds each device class's stack as the cluster
// experiment does: the lab's shared System for a default class, one
// derated-PIM System per MAC-interval override.
func fleetSystems(lab *exp.Lab) cluster.SystemBuilder {
	derated := map[string]*engine.System{}
	return func(c cluster.DeviceClass) (*engine.System, error) {
		if c.MACIntervalCycles == 0 {
			return lab.System(c.Platform)
		}
		if s, ok := derated[c.Label()]; ok {
			return s, nil
		}
		cfg := engine.DefaultConfig()
		p := pim.DefaultAiM(c.Platform.Spec.Geometry)
		p.MACIntervalCycles = c.MACIntervalCycles
		cfg.PIM = &p
		s, err := engine.NewSystem(c.Platform, exp.PlatformModel(c.Platform), cfg)
		if err == nil {
			derated[c.Label()] = s
		}
		return s, err
	}
}

func (f *fleetSession) close() {}

func (f *fleetSession) op(ctx context.Context, rec *recorder, parent int) opResult {
	id := rec.begin("cluster.Run", parent, 1)
	m, secs, err := f.run(ctx, f.cfg)
	rec.end(id)
	f.last = m
	return checked(secs, float64(m.Queries), fleetDigest(m), err, checkFleet(m))
}

func (f *fleetSession) run(ctx context.Context, cfg cluster.Config) (cluster.Metrics, float64, error) {
	var m cluster.Metrics
	secs, err := timed(func() (err error) {
		m, err = cluster.Run(ctx, f.fl, cfg)
		return err
	})
	return m, secs, err
}

// fleetDigest hashes a run's full metrics.
func fleetDigest(m cluster.Metrics) string { return digest([]byte(fmt.Sprintf("%+v", m))) }

// checkFleet asserts the router's conservation identities: every
// arrival is routed or shed, every routed query ends exactly once, and
// every migration re-arrives at its destination after one retraction.
func checkFleet(m cluster.Metrics) error {
	switch {
	case m.Routed+m.Shed != m.Queries:
		return fmt.Errorf("fleet: routed %d + shed %d != queries %d", m.Routed, m.Shed, m.Queries)
	case m.Completed+m.Failed+m.TimedOut+m.Rejected != m.Routed:
		return fmt.Errorf("fleet: completed %d + failed %d + timed out %d + rejected %d != routed %d",
			m.Completed, m.Failed, m.TimedOut, m.Rejected, m.Routed)
	case m.Arrived != m.Routed+m.Stolen:
		return fmt.Errorf("fleet: arrived %d != routed %d + stolen %d", m.Arrived, m.Routed, m.Stolen)
	case m.Retracted != m.Stolen:
		return fmt.Errorf("fleet: retracted %d != stolen %d", m.Retracted, m.Stolen)
	}
	return nil
}

// points measures the fleet's layer breakdown: the op at one worker
// (parallel speed-up, and the serial host cost per query and barrier),
// the op with stealing off, one device-sim query on the same traffic,
// and exp.Lab.ClusterCompute, whose +steal row must equal the op.
func (f *fleetSession) points(ctx context.Context, n int) (map[string]float64, []opResult) {
	var ops []opResult
	timeRuns := func(cfg cluster.Config, variant bool) (float64, cluster.Metrics) {
		var xs []float64
		var first cluster.Metrics
		for i := 0; i < n; i++ {
			m, secs, err := f.run(ctx, cfg)
			op := checked(secs, float64(m.Queries), fleetDigest(m), err, checkFleet(m))
			if variant {
				if i == 0 {
					first = m
				} else if op.Err == "" && fleetDigest(first) != op.Digest {
					op.Err = "fleet: steal-off runs disagree"
				}
				op.Digest = ""
			}
			ops = append(ops, op)
			xs = append(xs, secs)
		}
		return median(xs), first
	}
	par, _ := timeRuns(f.cfg, false)
	one := f.cfg
	one.Parallelism = 1
	serial, _ := timeRuns(one, false)
	noSteal := f.cfg
	noSteal.Steal = false
	plain, _ := timeRuns(noSteal, true)

	m := map[string]float64{
		"parallel.speedup_x":       serial / par,
		"cluster.steal_overhead_x": par / plain,
		"cluster.ns_per_query":     serial * 1e9 / float64(f.cfg.Queries),
		"cluster.ns_per_barrier":   ratio(serial*1e9, float64(f.last.Barriers)),
	}
	dev, err := f.deviceNsPerQuery(n)
	ops = append(ops, checked(0, 0, "", err))
	m["serve.device_ns_per_query"] = dev
	m["cluster.overhead_x"] = ratio(m["cluster.ns_per_query"], dev)

	var mets []cluster.Metrics
	secs, err := timed(func() (err error) {
		mets, err = f.lab.ClusterCompute(ctx, f.ec)
		return err
	})
	if err == nil && len(mets) != 2 {
		err = fmt.Errorf("fleet: ClusterCompute returned %d rows, want plain and +steal", len(mets))
	}
	op := checked(secs, 0, "", err)
	if err == nil {
		op = checked(secs, float64(mets[1].Queries), fleetDigest(mets[1]), checkFleet(mets[1]))
	}
	return m, append(ops, op)
}

// deviceNsPerQuery is the host cost of one device-sim query on the
// fleet's own traffic: serve.Run on each device class at the per-device
// rate and query share, weighted by the class's device count.
func (f *fleetSession) deviceNsPerQuery(n int) (float64, error) {
	devices := f.fl.Devices()
	var total, queries float64
	for _, c := range f.ec.Fleet {
		sys, err := f.build(c)
		if err != nil {
			return 0, err
		}
		cfg := serve.SimConfig{
			Mode:             serve.Cooperative,
			Kind:             engine.FACIL,
			Replicas:         1,
			ArrivalRate:      f.cfg.ArrivalRate / float64(devices),
			Queries:          f.cfg.Queries / devices,
			Workload:         f.cfg.Workload,
			Seed:             f.cfg.Seed,
			QueueCap:         f.cfg.QueueCap,
			DeadlineTTLT:     f.cfg.DeadlineTTLT,
			Policy:           f.cfg.Policy,
			BreakerThreshold: f.cfg.DeviceBreakerThreshold,
			NoTBT:            true,
		}
		var xs []float64
		for i := 0; i <= n; i++ { // the first run fills the class's latency cache
			secs, err := timed(func() error {
				_, err := serve.Run(sys, cfg)
				return err
			})
			if err != nil {
				return 0, err
			}
			if i > 0 {
				xs = append(xs, secs)
			}
		}
		total += median(xs) * float64(c.Count)
		queries += float64(cfg.Queries * c.Count)
	}
	return total * 1e9 / queries, nil
}

func (f *fleetSession) layer(*recorder, int) map[string]float64 {
	return map[string]float64{
		"cluster.barriers_per_op": float64(f.last.Barriers),
		"cluster.stolen_per_op":   float64(f.last.Stolen),
		"cluster.shed_per_op":     float64(f.last.Shed),
	}
}
