package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"facil/internal/engine"
	"facil/internal/serve"
	"facil/internal/soc"
)

// TestRunWorkerCountInvariant runs a faulted fleet with the router's
// health breakers armed, plain and then stealing, at worker counts from
// serial to more workers than devices, and requires identical Metrics
// at each: the interleaved device shards must cover every device
// exactly once whatever their count. The breaker cooldown is not a
// multiple of the sync interval, so breakers reopen routing between
// barriers.
func TestRunWorkerCountInvariant(t *testing.T) {
	fl, err := NewFleet([]DeviceClass{
		{Platform: soc.Jetson, Count: 2},
		{Platform: soc.Macbook, Count: 2},
		{Platform: soc.IdeaPad, Count: 1, MACIntervalCycles: 8},
		{Platform: soc.IPhone, Count: 4},
	}, testSystem)
	if err != nil {
		t.Fatal(err)
	}
	n := fl.Devices()
	for _, steal := range []bool{false, true} {
		cfg := clusterBenchConfig(steal)
		cfg.Queries = 800
		cfg.BreakerCooldown = 37
		cfg.Policy = serve.PolicyNone
		var serial Metrics
		for _, par := range []int{1, 2, 3, 7, n, n + 5} {
			c := cfg
			c.Parallelism = par
			m, err := Run(context.Background(), fl, c)
			if err != nil {
				t.Fatalf("steal %v, par %d: %v", steal, par, err)
			}
			if par == 1 {
				serial = m
				if m.BreakerOpens == 0 || steal && m.Stolen == 0 {
					t.Fatalf("steal %v: fleet exercises too little: %d breaker opens, %d stolen", steal, m.BreakerOpens, m.Stolen)
				}
				continue
			}
			if !reflect.DeepEqual(serial, m) {
				t.Errorf("steal %v, par %d metrics diverge from serial:\n%+v\nvs\n%+v", steal, par, serial, m)
			}
		}
	}
}

// TestRouteViewsMatchFullRefresh drives the router's incremental signal
// refresh through barriers and arrivals under every strategy and
// requires the eligibility, scores and tournament tree the pick reads
// to equal a full rebuild at every arrival. Breakers open at barriers
// and cool down between them, so devices leave the blocked list
// mid-interval, and assignments drive half-open probes into their
// probation quota.
func TestRouteViewsMatchFullRefresh(t *testing.T) {
	const n, sync = 12, 5.0
	for _, kind := range Strategies() {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Strategy: kind, BreakerThreshold: 2, BreakerCooldown: 2.3}
			rng := rand.New(rand.NewSource(3))
			devs := make([]*device, n)
			for i := range devs {
				devs[i] = &device{}
			}
			rv := newRouteViews(&cfg, devs)
			var clock float64
			unblocked := 0
			for b := 1; b <= 60; b++ {
				barrier := float64(b) * sync
				for clock < barrier {
					prev := append([]int(nil), rv.blocked...)
					rv.refresh(clock)
					for _, i := range prev {
						if rv.eligible[i] {
							unblocked++
						}
					}
					want := newRouteViews(&cfg, devs)
					want.refresh(clock)
					if !slices.Equal(rv.eligible, want.eligible) || !slices.Equal(rv.score, want.score) || !slices.Equal(rv.tree, want.tree) {
						t.Fatalf("barrier %d, t=%g: incremental signals\n%v %v %v\nwant full rebuild\n%v %v %v",
							b, clock, rv.eligible, rv.score, rv.tree, want.eligible, want.score, want.tree)
					}
					var eligibleIdx []int
					for i, e := range rv.eligible {
						if e {
							eligibleIdx = append(eligibleIdx, i)
						}
					}
					if len(eligibleIdx) > 0 && rng.Intn(5) > 0 {
						rv.assign(eligibleIdx[rng.Intn(len(eligibleIdx))], clock)
					}
					clock += rng.Float64() * 0.6
				}
				// The barrier: devices settle their ledger and breaker
				// strikes as collect would, then the signals go stale.
				for _, d := range devs {
					d.inflight = rng.Intn(8)
					d.ewma = rng.Float64()
					d.probes = 0
					switch rng.Intn(4) {
					case 0:
						d.brk.Failure(barrier, cfg.BreakerThreshold)
					case 1:
						d.brk.Success()
					}
				}
				rv.stale = true
			}
			if unblocked == 0 {
				t.Fatal("no breaker cooled down between barriers; the test exercises nothing")
			}
		})
	}
}

// view is one device's routing signals as the linear scans read them.
type view struct {
	eligible bool
	inflight int
	ewma     float64
}

// linearPick is the router's device selection as it stood before the
// tournament tree — a linear scan per strategy over every device, with
// round-robin advancing *next — frozen here as the tree's oracle.
func linearPick(k StrategyKind, views []view, c Class, next *int) int {
	if k == RoundRobin {
		n := len(views)
		for off := 0; off < n; off++ {
			i := (*next + off) % n
			if views[i].eligible {
				*next = (i + 1) % n
				return i
			}
		}
		return -1
	}
	best := -1
	var score float64
	for i, v := range views {
		if !v.eligible {
			continue
		}
		s := float64(v.inflight)
		if k == LatencyWeighted {
			s = v.ewma * float64(v.inflight+1)
		}
		if best < 0 || s < score {
			best, score = i, s
		}
	}
	if best >= 0 && k == SLOTiered {
		if c == Standard && views[best].inflight >= DefaultShedStandard ||
			c == Batch && views[best].inflight >= DefaultShedBatch {
			return -1
		}
	}
	return best
}

// TestRouteTreeMatchesPick holds the router's pick to the linear scans
// it replaces: at every arrival, for every strategy, routeViews.pick
// must equal linearPick over the devices' current signals. The barrier
// settles pick ties (every EWMA zero and every depth equal), breakers
// that open and cool down between barriers, and stretches where every
// breaker is open and the fleet must shed.
func TestRouteTreeMatchesPick(t *testing.T) {
	const n, sync = 13, 5.0
	for _, kind := range Strategies() {
		for _, settle := range []string{"ties", "blocked", "all-blocked"} {
			t.Run(kind.String()+"/"+settle, func(t *testing.T) {
				cfg := Config{Strategy: kind, BreakerThreshold: 2, BreakerCooldown: 2.3}
				rng := rand.New(rand.NewSource(5))
				devs := make([]*device, n)
				for i := range devs {
					devs[i] = &device{}
				}
				rv := newRouteViews(&cfg, devs)
				views := make([]view, n)
				next := 0
				var clock float64
				var routed, shed, tied int
				for b := 1; b <= 40; b++ {
					barrier := float64(b) * sync
					for ; clock < barrier; clock += rng.Float64() * 0.4 {
						c := Class(rng.Intn(NumClasses))
						for i, d := range devs {
							views[i] = view{eligible(&cfg, d, clock), d.inflight, d.ewma}
						}
						got := rv.pick(clock, c)
						if want := linearPick(kind, views, c, &next); got != want {
							t.Fatalf("barrier %d, t=%g, class %v: tree picked %d, linear scan %d\nviews %+v",
								b, clock, c, got, want, views)
						}
						if got < 0 {
							shed++
							continue
						}
						for j := range views {
							if j != got && views[j].eligible && rv.score[j] == rv.score[got] {
								tied++
								break
							}
						}
						rv.assign(got, clock)
						routed++
					}
					for _, d := range devs {
						d.probes = 0
						switch settle {
						case "ties":
							d.inflight, d.ewma = 0, 0
						case "blocked":
							d.inflight, d.ewma = rng.Intn(8), rng.Float64()
							if rng.Intn(3) == 0 {
								d.brk.Failure(barrier, cfg.BreakerThreshold)
							} else {
								d.brk.Success()
							}
						case "all-blocked":
							d.inflight, d.ewma = rng.Intn(8), rng.Float64()
							d.brk.Failure(barrier, cfg.BreakerThreshold)
						}
					}
					rv.stale = true
				}
				if routed == 0 || tied == 0 && settle == "ties" || shed == 0 && settle == "all-blocked" {
					t.Fatalf("fleet exercises too little: %d routed, %d shed, %d tied picks", routed, shed, tied)
				}
			})
		}
	}
}

// TestRerouteDestination runs one barrier's re-route phase on a source
// device one query above its steal threshold, over destinations where
// the least-loaded device (1) and the latency-weighted one (2) differ.
// Device 3 scores best under both rankings' blind spots — unobserved,
// so latency-weighted scores it 0 — but is either at the steal
// threshold or full, device 4 is shallowest but breaker-blocked, and
// devices 5 and 6 tie 1 and 2 at higher indices: the query must move to
// each LatencySteal value's own device and skip the rest.
func TestRerouteDestination(t *testing.T) {
	fl, err := NewFleet([]DeviceClass{{Platform: soc.IPhone, Count: 1}}, testSystem)
	if err != nil {
		t.Fatal(err)
	}
	const at = 1e-6
	for _, c := range []struct {
		name                string
		threshold, queueCap int
	}{
		{"at-threshold", 4, 8},
		{"full", 6, 4},
	} {
		for _, latency := range []bool{false, true} {
			cfg := Config{Steal: true, StealThreshold: c.threshold, QueueCap: c.queueCap,
				LatencySteal: latency, BreakerThreshold: 1, BreakerCooldown: 1e9}
			devs := make([]*device, 7)
			for i := range devs {
				sim, err := serve.NewSim(fl.systems[0], serve.SimConfig{
					Mode: serve.Cooperative, Kind: engine.FACIL, Replicas: 1, NoTBT: true})
				if err != nil {
					t.Fatal(err)
				}
				devs[i] = &device{sim: sim}
			}
			src := devs[0]
			for range c.threshold + 1 {
				if err := src.sim.Inject(0, 64, 2000); err != nil {
					t.Fatal(err)
				}
			}
			if err := src.sim.AdvanceTo(at); err != nil {
				t.Fatal(err)
			}
			m0 := src.sim.Counters()
			src.inflight = m0.Admitted - m0.Completed - m0.TimedOut - m0.Failed - m0.Retracted
			devs[1].inflight, devs[1].ewma = 1, 0.9
			devs[2].inflight, devs[2].ewma = 2, 0.1
			devs[3].inflight = min(c.threshold, c.queueCap)
			devs[4].brk.Failure(0, cfg.BreakerThreshold)
			devs[5].inflight, devs[5].ewma = 1, 0.9
			devs[6].inflight, devs[6].ewma = 2, 0.1

			var m Metrics
			if err := reroute(&cfg, devs, at, &m); err != nil {
				t.Fatal(err)
			}
			want := 1
			if latency {
				want = 2
			}
			depth := []int{c.threshold, 1, 2, min(c.threshold, c.queueCap), 0, 1, 2}
			depth[want]++
			for i, d := range devs {
				if err := d.sim.AdvanceTo(2 * at); err != nil {
					t.Fatal(err)
				}
				arrived := 0
				if i == want {
					arrived = 1
				}
				if got := d.sim.Counters().Arrived; d.inflight != depth[i] || i > 0 && got != arrived {
					t.Errorf("%s, latency %v: device %d holds %d in the ledger and %d moved arrivals, want %d and %d",
						c.name, latency, i, d.inflight, got, depth[i], arrived)
				}
			}
			if got := src.sim.Counters().Retracted; m.Stolen != 1 || got != 1 {
				t.Errorf("%s, latency %v: stole %d, source retracted %d, want 1 and 1",
					c.name, latency, m.Stolen, got)
			}
		}
	}
}

// TestRouteTreeZeroAllocs requires the per-arrival routing path — view
// refresh, tree pick, ledger assign — and the barrier's full rebuild
// to allocate nothing once the blocked list has its capacity.
func TestRouteTreeZeroAllocs(t *testing.T) {
	cfg := Config{Strategy: LatencyWeighted, BreakerThreshold: 2, BreakerCooldown: 2.3}
	devs := make([]*device, 104)
	for i := range devs {
		devs[i] = &device{ewma: float64(i%7) / 7}
		if i%5 == 0 {
			devs[i].brk.Failure(0, cfg.BreakerThreshold)
			devs[i].brk.Failure(0, cfg.BreakerThreshold)
		}
	}
	rv := newRouteViews(&cfg, devs)
	var clock float64
	arrivals := 0
	allocs := testing.AllocsPerRun(500, func() {
		clock += 0.01
		if arrivals++; arrivals%50 == 0 {
			rv.stale = true
		}
		if p := rv.pick(clock, Interactive); p >= 0 {
			rv.assign(p, clock)
		}
	})
	if allocs != 0 {
		t.Errorf("refresh→pick→assign allocates %v per arrival, want 0", allocs)
	}
}
