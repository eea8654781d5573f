package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

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

// TestRouteViewsMatchFullRefresh drives the router's incremental view
// refresh through barriers and arrivals and requires the views handed
// to the strategy to equal a full rebuild at every arrival. Breakers
// open at barriers and cool down between them, so devices leave the
// blocked list mid-interval, and assignments drive half-open probes
// into their probation quota.
func TestRouteViewsMatchFullRefresh(t *testing.T) {
	const n, sync = 12, 5.0
	cfg := Config{BreakerThreshold: 2, BreakerCooldown: 2.3}
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
			views := rv.refresh(clock)
			if !rv.stale {
				for _, i := range prev {
					if views[i].Eligible {
						unblocked++
					}
				}
			}
			want := newRouteViews(&cfg, devs).refresh(clock)
			if !reflect.DeepEqual(views, want) {
				t.Fatalf("barrier %d, t=%g: incremental views\n%+v\nwant full rebuild\n%+v", b, clock, views, want)
			}
			var eligibleIdx []int
			for i, v := range views {
				if v.Eligible {
					eligibleIdx = append(eligibleIdx, i)
				}
			}
			if len(eligibleIdx) > 0 && rng.Intn(5) > 0 {
				rv.assign(eligibleIdx[rng.Intn(len(eligibleIdx))], clock)
			}
			clock += rng.Float64() * 0.6
		}
		// The barrier: devices settle their ledger and breaker strikes
		// as collect would, then the views go stale.
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
}

// TestRouteTreeMatchesPick holds the router's tournament tree to the
// linear Pick scans it replaces: at every arrival, for every ranked
// strategy, the tree's pick must equal the strategy's Pick over a full
// rebuild of the views. The barrier settles pick ties (every EWMA zero
// and every depth equal), breakers that open and cool down between
// barriers, and stretches where every breaker is open and the fleet
// must shed.
func TestRouteTreeMatchesPick(t *testing.T) {
	const n, sync = 13, 5.0
	for _, kind := range []StrategyKind{LeastLoaded, LatencyWeighted, SLOTiered} {
		for _, settle := range []string{"ties", "blocked", "all-blocked"} {
			t.Run(kind.String()+"/"+settle, func(t *testing.T) {
				cfg := Config{Strategy: kind, BreakerThreshold: 2, BreakerCooldown: 2.3}
				rng := rand.New(rand.NewSource(5))
				devs := make([]*device, n)
				for i := range devs {
					devs[i] = &device{}
				}
				rv := newRouteViews(&cfg, devs)
				oracle := NewStrategy(kind)
				var clock float64
				var routed, shed, tied int
				for b := 1; b <= 40; b++ {
					barrier := float64(b) * sync
					for ; clock < barrier; clock += rng.Float64() * 0.4 {
						q := QueryInfo{Arrival: clock, Class: Class(rng.Intn(NumClasses))}
						got := rv.pick(q)
						want := oracle.Pick(newRouteViews(&cfg, devs).refresh(clock), q)
						if got != want {
							t.Fatalf("barrier %d, t=%g, class %v: tree picked %d, linear Pick %d\nviews %+v",
								b, clock, q.Class, got, want, rv.views)
						}
						if got < 0 {
							shed++
							continue
						}
						for j := range rv.views {
							if j != got && rv.views[j].Eligible && rv.score[j] == rv.score[got] {
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
		if p := rv.pick(QueryInfo{Arrival: clock}); p >= 0 {
			rv.assign(p, clock)
		}
	})
	if allocs != 0 {
		t.Errorf("refresh→pick→assign allocates %v per arrival, want 0", allocs)
	}
}
