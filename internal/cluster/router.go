package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"facil/internal/engine"
	"facil/internal/fault"
	"facil/internal/parallel"
	"facil/internal/serve"
	"facil/internal/stats"
	"facil/internal/workload"
)

// device is the router's ledger entry for one fleet member: the
// host-fed sim it drives, the router-side health breaker, and the
// assignment-time signals the strategies read. inflight is assigned
// minus observed-terminal — it leads the device's own counters by up to
// one barrier, which is exactly the knowledge an assignment-time router
// has.
type device struct {
	class    int
	sim      *serve.Sim
	brk      serve.Breaker
	inflight int
	routed   int
	// probes counts queries routed or stolen to this device while its
	// breaker is half-open, within the current barrier interval; the
	// probation quota caps it so a recovering device re-earns traffic
	// gradually (collect resets it every barrier).
	probes   int
	ewma     float64
	ttftSeen int
	last     serve.Probe
}

// splitmix64 decorrelates per-device seeds from one cluster seed (same
// finalizer internal/fault uses for its stream hashing).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// faulty deterministically selects whether device di carries a lane
// fault stream: a FaultFraction Bernoulli drawn by hashing (FaultSeed,
// di), so the faulty subset is a pure function of the config — stable
// across strategies, worker counts and runs.
func faulty(cfg Config, di int) bool {
	if cfg.FaultFraction <= 0 {
		return false
	}
	h := splitmix64(uint64(cfg.FaultSeed)<<16 + uint64(di))
	return float64(h>>11)/(1<<53) < cfg.FaultFraction
}

// eligible is the router's routing/stealing admission predicate: a
// device is out while its health breaker blocks it, and a half-open
// device stops receiving once its probation quota for the current
// barrier interval is spent.
func eligible(cfg *Config, d *device, at float64) bool {
	if cfg.BreakerThreshold == 0 {
		return true
	}
	if d.brk.Blocked(at, cfg.BreakerCooldown) {
		return false
	}
	return !d.brk.Probing() || d.probes < DefaultProbeQuota
}

// routeViews holds the DeviceViews the strategy reads between two
// barriers and refreshes only the ones that can have changed. Between
// barriers the router mutates one device per arrival — the one assign
// routes to (ledger, half-open admission, probation count) — and every
// other view depends on the clock only through its breaker's Blocked,
// which can only turn false as the clock moves forward. So after a full
// rebuild at the first arrival past a barrier, each later arrival
// rebuilds the last assigned view plus the views that were still
// blocked; the result equals a full rebuild at that arrival.
type routeViews struct {
	cfg   *Config
	devs  []*device
	views []DeviceView
	// blocked lists the devices whose breaker blocked them at the last
	// refresh, in index order.
	blocked []int
	// picked is the device assigned since the last refresh (-1: none).
	picked int
	// stale forces the next refresh to rebuild every view; set it
	// whenever devices change outside assign (every barrier).
	stale bool
}

func newRouteViews(cfg *Config, devs []*device) *routeViews {
	return &routeViews{cfg: cfg, devs: devs, views: make([]DeviceView, len(devs)), picked: -1, stale: true}
}

// refresh brings every view up to date for an arrival at at (at never
// decreases between invalidations) and returns them.
func (rv *routeViews) refresh(at float64) []DeviceView {
	if rv.stale {
		rv.blocked = rv.blocked[:0]
		for i := range rv.views {
			if rv.set(i, at) {
				rv.blocked = append(rv.blocked, i)
			}
		}
		rv.stale = false
	} else {
		if rv.picked >= 0 {
			// An assigned device was eligible, hence not blocked and
			// not in the blocked list, and assign cannot open a breaker.
			rv.set(rv.picked, at)
		}
		still := rv.blocked[:0]
		for _, i := range rv.blocked {
			if rv.set(i, at) {
				still = append(still, i)
			}
		}
		rv.blocked = still
	}
	rv.picked = -1
	return rv.views
}

// set rebuilds view i at time at and reports whether device i's breaker
// blocks it then.
func (rv *routeViews) set(i int, at float64) bool {
	d := rv.devs[i]
	rv.views[i] = DeviceView{
		Eligible: eligible(rv.cfg, d, at),
		InFlight: d.inflight,
		TTFTEWMA: d.ewma,
	}
	return rv.cfg.BreakerThreshold > 0 && d.brk.Blocked(at, rv.cfg.BreakerCooldown)
}

// assign books an arrival at at onto device i in the router's ledger.
// Routing to a cooled-down open breaker is the half-open probe; the
// next collect's outcome closes or reopens it, and the probation quota
// meters further traffic until then.
func (rv *routeViews) assign(i int, at float64) {
	d := rv.devs[i]
	if rv.cfg.BreakerThreshold > 0 {
		d.brk.Admit(at, rv.cfg.BreakerCooldown)
		if d.brk.Probing() {
			d.probes++
		}
	}
	d.inflight++
	d.routed++
	rv.picked = i
}

// Run routes cfg.Queries across the fleet under cfg.Strategy and
// returns the cluster-level reduction. The run is deterministic in
// (cfg, fleet) at any Parallelism: all cross-device information flows
// through the serial route/collect phases at telemetry barriers, and
// between barriers devices advance independently (one interleaved
// device shard per worker, via parallel.Sweep) with no shared mutable
// state — see DESIGN.md §13 for the merge argument.
func Run(ctx context.Context, fl *Fleet, cfg Config) (Metrics, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	n := fl.Devices()

	// Build one host-fed sim per device (arrivals come from Inject).
	// Per-device seeds are decorrelated with splitmix64.
	devs := make([]*device, 0, n)
	for ci, cl := range fl.classes {
		for k := 0; k < cl.Count; k++ {
			di := len(devs)
			scfg := serve.SimConfig{
				Mode:             serve.Cooperative,
				Kind:             engine.FACIL,
				Replicas:         1,
				NoTBT:            true,
				Seed:             int64(splitmix64(uint64(cfg.Seed) + 0x5EED*uint64(di))),
				QueueCap:         cfg.QueueCap,
				DeadlineTTLT:     cfg.DeadlineTTLT,
				Policy:           cfg.Policy,
				BreakerThreshold: cfg.DeviceBreakerThreshold,
			}
			if cfg.FaultMTBF > 0 && faulty(cfg, di) {
				scfg.Faults = fault.Scenario{
					Seed:     int64(splitmix64(uint64(cfg.FaultSeed) + uint64(di))),
					LaneMTBF: cfg.FaultMTBF,
					LaneMTTR: cfg.FaultMTTR,
				}
			}
			sim, err := serve.NewSim(fl.systems[ci], scfg)
			if err != nil {
				return Metrics{}, fmt.Errorf("cluster: device %d (%s): %w", di, cl.Platform.Name, err)
			}
			devs = append(devs, &device{class: ci, sim: sim})
		}
	}

	// The cluster arrival process mirrors a single sim's: one
	// exponential gap per query from a run-owned RNG, plus a second
	// stream drawing the priority class (Interactive 50%, Standard 30%,
	// Batch 20%). Both streams are consumed for every query — shed or
	// routed — so strategies see identical arrival sequences.
	ds, err := workload.Generate(cfg.Workload, cfg.Queries, cfg.Seed+1)
	if err != nil {
		return Metrics{}, err
	}
	arrRNG := rand.New(rand.NewSource(cfg.Seed))
	clsRNG := rand.New(rand.NewSource(cfg.Seed + 3))
	strat := NewStrategy(cfg.Strategy)

	m := Metrics{Strategy: cfg.Strategy, Devices: n, Queries: cfg.Queries, Steal: cfg.Steal}
	Live.runsStarted.Add(1)

	rv := newRouteViews(&cfg, devs)

	// advanceAll moves every device's virtual clock up to (strictly
	// before) t. Worker w advances the interleaved shard i ≡ w (mod nw)
	// serially — interleaving spreads each class's devices over every
	// worker — so a barrier costs nw dispatches, not n. Devices share
	// nothing mutable, so worker count cannot matter.
	nw := cfg.Parallelism
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	nw = min(nw, n)
	shards := make([]int, nw)
	for w := range shards {
		shards[w] = w
	}
	advanceAll := func(t float64) error {
		_, err := parallel.Sweep(ctx, shards, func(_ context.Context, w int) (struct{}, error) {
			for i := w; i < n; i += nw {
				if err := devs[i].sim.AdvanceTo(t); err != nil {
					return struct{}{}, err
				}
			}
			return struct{}{}, nil
		}, parallel.Workers(nw))
		return err
	}
	// collect refreshes the router's ledger from each device's counters
	// — serially, in device order, so health-breaker strikes and EWMA
	// updates happen in one deterministic sequence.
	collect := func(at float64) {
		for _, d := range devs {
			p := d.sim.Probe()
			termNew := p.Completed + p.Failed + p.TimedOut + p.Rejected
			termOld := d.last.Completed + d.last.Failed + d.last.TimedOut + d.last.Rejected
			d.inflight -= termNew - termOld
			if cfg.BreakerThreshold > 0 {
				for f := d.last.Failed; f < p.Failed; f++ {
					if d.brk.Failure(at, cfg.BreakerThreshold) {
						m.BreakerOpens++
						Live.breakerOpens.Add(1)
					}
				}
				if p.Completed > d.last.Completed && p.Failed == d.last.Failed {
					d.brk.Success()
				}
			}
			ttft, _ := d.sim.Latencies()
			for _, v := range ttft[d.ttftSeen:] {
				if d.ewma == 0 {
					d.ewma = v
				} else {
					d.ewma = DefaultEWMAAlpha*v + (1-DefaultEWMAAlpha)*d.ewma
				}
			}
			d.ttftSeen = len(ttft)
			d.last = p
			// A fresh barrier interval starts: half-open devices get a
			// fresh probation quota (their probe outcome, if any, was just
			// observed above).
			d.probes = 0
		}
	}

	// reroute is the serial re-route phase after each barrier's collect:
	// it steals queued work from breaker-open devices (full evacuation)
	// and from over-threshold healthy devices (down to the threshold, and
	// only while the move strictly improves balance), re-injecting each
	// query on the device the leastLoaded strategy (or, with
	// LatencySteal, latencyWeighted) picks from dst, the scratch views in
	// which only eligible destinations with queue room count. Both paths
	// take admission-queued queries first — those move free — then
	// prefilled-but-preempted ones, which pay the KV handoff penalty. It
	// runs serially in device order — all sims are quiescent at the
	// barrier — so the migration flow is part of the deterministic
	// merge, and because the router's ledger is settled right after
	// collect (inflight equals each device's in-system depth), one
	// counter serves both the source condition and the destination
	// choice.
	pick := leastLoaded{}.Pick
	if cfg.LatencySteal {
		pick = latencyWeighted{}.Pick
	}
	dst := make([]DeviceView, n)
	reroute := func(at float64) error {
		if !cfg.Steal {
			return nil
		}
		for di, d := range devs {
			open := cfg.BreakerThreshold > 0 && d.brk.Blocked(at, cfg.BreakerCooldown)
			target := cfg.StealThreshold
			if open {
				target = 0
			} else if cfg.StealThreshold == 0 || d.inflight < cfg.StealThreshold {
				continue
			}
			for d.inflight > target {
				for j, e := range devs {
					// Never fill a destination up to the steal trigger:
					// that work would just be stolen again next barrier.
					// Evacuations are exempt — a breaker-open source
					// cannot serve at all, so any live destination with
					// queue room beats leaving the query stranded.
					dst[j] = DeviceView{
						Eligible: j != di && eligible(&cfg, e, at) &&
							(cfg.QueueCap <= 0 || e.inflight < cfg.QueueCap) &&
							(open || cfg.StealThreshold <= 0 || e.inflight < cfg.StealThreshold),
						InFlight: e.inflight,
						TTFTEWMA: e.ewma,
					}
				}
				to := pick(dst, QueryInfo{})
				if to < 0 {
					break
				}
				if !open && devs[to].inflight+1 >= d.inflight {
					break
				}
				r, ok := d.sim.Retract()
				if !ok {
					r, ok = d.sim.RetractPrefilled()
				}
				if !ok {
					break
				}
				pen := 0.0
				if r.Prefilled {
					pen = DefaultMigrationPenalty
				}
				if err := devs[to].sim.InjectResume(at, r, pen); err != nil {
					return err
				}
				d.inflight--
				devs[to].inflight++
				if cfg.BreakerThreshold > 0 && devs[to].brk.Probing() {
					devs[to].probes++
				}
				m.Stolen++
				Live.stolen.Add(1)
				if r.Prefilled {
					m.StolenPrefilled++
					Live.stolenPrefilled.Add(1)
				}
			}
		}
		return nil
	}

	// barrier crosses the next telemetry barrier: advance every device
	// to it, settle the ledger, run the re-route phase, and schedule the
	// one after.
	nextB := cfg.SyncInterval
	barrier := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := advanceAll(nextB); err != nil {
			return err
		}
		collect(nextB)
		if err := reroute(nextB); err != nil {
			return err
		}
		m.Barriers++
		Live.barriers.Add(1)
		nextB += cfg.SyncInterval
		rv.stale = true
		return nil
	}

	var clock float64
	for qi := 0; qi < cfg.Queries; qi++ {
		clock += arrRNG.ExpFloat64() / cfg.ArrivalRate
		u := clsRNG.Float64()
		class := Interactive
		switch {
		case u >= 0.8:
			class = Batch
		case u >= 0.5:
			class = Standard
		}
		// Cross every barrier at or before this arrival first, so the
		// routing signals are at most one SyncInterval stale.
		for clock >= nextB {
			if err := barrier(); err != nil {
				return Metrics{}, err
			}
		}
		q := QueryInfo{
			ID: qi, Arrival: clock,
			Prefill: ds.Queries[qi].Prefill, Decode: ds.Queries[qi].Decode,
			Class: class,
		}
		views := rv.refresh(clock)
		pick := strat.Pick(views, q)
		if pick < 0 {
			m.Shed++
			m.ShedByClass[class]++
			Live.shed.Add(1)
			continue
		}
		if pick >= n || !views[pick].Eligible {
			return Metrics{}, fmt.Errorf("cluster: strategy %s picked invalid device %d", cfg.Strategy, pick)
		}
		rv.assign(pick, clock)
		if err := devs[pick].sim.Inject(clock, q.Prefill, q.Decode); err != nil {
			return Metrics{}, err
		}
		m.Routed++
		Live.routed.Add(1)
	}

	// Drain: seal every arrival stream and run all devices to
	// quiescence, then settle the ledger one last time. With stealing
	// enabled the drain keeps the barrier cadence while work remains,
	// so queues stranded behind a breaker that opens during the drain
	// still get evacuated — the final no-steal AdvanceTo just discards
	// tail fault events without moving any clock.
	for _, d := range devs {
		d.sim.Seal()
	}
	if cfg.Steal {
		for {
			busy := false
			for _, d := range devs {
				if d.inflight > 0 {
					busy = true
					break
				}
			}
			if !busy {
				break
			}
			if err := barrier(); err != nil {
				return Metrics{}, err
			}
		}
	}
	if err := advanceAll(math.Inf(1)); err != nil {
		return Metrics{}, err
	}
	collect(clock)

	// Reduce: pool latency samples, sum outcome counters, and average
	// the per-device utilization/availability within each class.
	var allTTFT, allTTLT []float64
	classTTFT := make([][]float64, len(fl.classes))
	m.PerClass = make([]ClassMetrics, len(fl.classes))
	for ci, cl := range fl.classes {
		m.PerClass[ci] = ClassMetrics{Class: cl.Label(), Devices: cl.Count}
	}
	for di, d := range devs {
		if d.inflight != 0 {
			return Metrics{}, fmt.Errorf("cluster: device %d ledger leak: %d in flight after drain", di, d.inflight)
		}
		dm := d.sim.Counters()
		m.Arrived += dm.Arrived
		m.Completed += dm.Completed
		m.Failed += dm.Failed
		m.TimedOut += dm.TimedOut
		m.Rejected += dm.Rejected
		m.Retracted += dm.Retracted
		m.Degraded += dm.Degraded
		m.FailedOver += dm.FailedOver
		m.DeviceBreakerOpens += dm.BreakerOpens
		m.SLOMet += dm.SLOMet
		if dm.Makespan > m.Makespan {
			m.Makespan = dm.Makespan
		}
		ttft, ttlt := d.sim.Latencies()
		allTTFT = append(allTTFT, ttft...)
		allTTLT = append(allTTLT, ttlt...)
		classTTFT[d.class] = append(classTTFT[d.class], ttft...)
		pc := &m.PerClass[d.class]
		pc.Routed += d.routed
		pc.Completed += dm.Completed
		pc.Failed += dm.Failed
		pc.TimedOut += dm.TimedOut
		pc.Rejected += dm.Rejected
		pc.PIMUtilization += dm.PIMUtilization
		pc.Availability += dm.Availability
	}
	for ci := range m.PerClass {
		pc := &m.PerClass[ci]
		if pc.Devices > 0 {
			pc.PIMUtilization /= float64(pc.Devices)
			pc.Availability /= float64(pc.Devices)
		}
		pc.TTFT = stats.QuantilesInPlace(classTTFT[ci], stats.Sum(classTTFT[ci]))
	}
	// The pooled buffers are the router's own copies, so each is summed
	// in device order and then selected in place.
	m.TTFT = stats.QuantilesInPlace(allTTFT, stats.Sum(allTTFT))
	m.TTLT = stats.QuantilesInPlace(allTTLT, stats.Sum(allTTLT))
	if m.Makespan > 0 {
		m.ThroughputQPS = float64(m.Completed) / m.Makespan
		m.GoodputQPS = float64(m.SLOMet) / m.Makespan
	}
	Live.runsFinished.Add(1)
	return m, nil
}
