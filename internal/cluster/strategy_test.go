package cluster

import (
	"slices"
	"testing"
)

// scripted builds the router's signals over devices at the given ledger
// depths and TTFT EWMAs (nil: all zero) under strategy k; the devices
// listed in blocked have a health breaker open for the whole test.
func scripted(k StrategyKind, depth []int, ewma []float64, blocked ...int) *routeViews {
	cfg := &Config{Strategy: k, BreakerThreshold: 1, BreakerCooldown: 1e9}
	devs := make([]*device, len(depth))
	for i := range devs {
		devs[i] = &device{inflight: depth[i]}
		if ewma != nil {
			devs[i].ewma = ewma[i]
		}
	}
	for _, i := range blocked {
		devs[i].brk.Failure(0, cfg.BreakerThreshold)
	}
	return newRouteViews(cfg, devs)
}

// picks routes one arrival per class in order, booking each pick on the
// router's ledger as Run does, and records the pick sequence.
func picks(rv *routeViews, classes ...Class) []int {
	out := make([]int, len(classes))
	for i, c := range classes {
		out[i] = rv.pick(0, c)
		if out[i] >= 0 {
			rv.assign(out[i], 0)
		}
	}
	return out
}

func TestRoundRobinOrder(t *testing.T) {
	// Ineligible device 1 is skipped; the cursor wraps past it.
	rv := scripted(RoundRobin, []int{0, 0, 0}, nil, 1)
	if got := picks(rv, make([]Class, 5)...); !slices.Equal(got, []int{0, 2, 0, 2, 0}) {
		t.Errorf("round-robin picks %v", got)
	}
	// All devices blocked: shed.
	if p := scripted(RoundRobin, []int{0, 0}, nil, 0, 1).pick(0, Interactive); p != -1 {
		t.Errorf("round-robin picked %d from an empty candidate set", p)
	}
}

func TestLeastLoadedOrder(t *testing.T) {
	// Fills the shallowest first, then lowest index on depth ties.
	rv := scripted(LeastLoaded, []int{2, 0, 1}, nil)
	if got := picks(rv, make([]Class, 4)...); !slices.Equal(got, []int{1, 1, 2, 0}) {
		t.Errorf("least-loaded picks %v", got)
	}
	// An ineligible device never wins, however shallow.
	if p := scripted(LeastLoaded, []int{0, 9}, nil, 0).pick(0, Interactive); p != 1 {
		t.Errorf("least-loaded picked %d past an ineligible device", p)
	}
}

func TestLatencyWeightedOrder(t *testing.T) {
	// Unobserved device 2 scores zero and is probed before the fast one.
	rv := scripted(LatencyWeighted, []int{0, 0, 0}, []float64{0.9, 0.1, 0})
	if p := rv.pick(0, Interactive); p != 2 {
		t.Errorf("latency-weighted skipped the unobserved device: picked %d", p)
	}
	// With all devices observed, expected wait EWMA*(inflight+1) rules:
	// the fast device absorbs load until its queue outweighs its speed.
	rv = scripted(LatencyWeighted, []int{0, 0, 0}, []float64{0.9, 0.1, 0.4})
	// Scores start 0.9/0.1/0.4: device 1 wins until 0.1*(n+1) exceeds
	// 0.4 (the 0.4-vs-0.4 tie stays on the lower index).
	if got := picks(rv, make([]Class, 5)...); !slices.Equal(got, []int{1, 1, 1, 1, 2}) {
		t.Errorf("latency-weighted picks %v", got)
	}
}

func TestSLOTieredAdmission(t *testing.T) {
	rv := scripted(SLOTiered, []int{3, 2}, nil)
	// Least-loaded depth is 2: Batch is at DefaultShedBatch and sheds,
	// Standard and Interactive are admitted.
	if p := rv.pick(0, Batch); p != -1 {
		t.Errorf("batch admitted at depth 2 with threshold 2: device %d", p)
	}
	if p := rv.pick(0, Standard); p != 1 {
		t.Errorf("standard routed to %d, want least-loaded 1", p)
	}
	// Standard sheds exactly at DefaultShedStandard.
	if p := scripted(SLOTiered, []int{5}, nil).pick(0, Standard); p != 0 {
		t.Errorf("standard shed at depth 5 with threshold 6: pick %d", p)
	}
	if p := scripted(SLOTiered, []int{6}, nil).pick(0, Standard); p != -1 {
		t.Errorf("standard admitted at depth 6 with threshold 6: device %d", p)
	}
	// Interactive is admitted at any depth while a device is eligible.
	deep := scripted(SLOTiered, []int{100}, nil)
	if p := deep.pick(0, Interactive); p != 0 {
		t.Errorf("interactive shed at depth 100: pick %d", p)
	}
	if p := deep.pick(0, Standard); p != -1 {
		t.Errorf("standard admitted at depth 100 with threshold 6: device %d", p)
	}
}

func TestParseStrategyRoundTrips(t *testing.T) {
	for _, k := range Strategies() {
		got, err := ParseStrategy(k.String())
		if err != nil || got != k {
			t.Errorf("ParseStrategy(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseStrategy("random"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

func TestParseFleet(t *testing.T) {
	classes, err := ParseFleet("jetson:2, ideapad/mac8:3 ,iphone:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 || classes[0].Count != 2 || classes[1].MACIntervalCycles != 8 || classes[2].Count != 1 {
		t.Errorf("ParseFleet = %+v", classes)
	}
	for _, bad := range []string{"", "jetson", "vax:3", "jetson:0", "jetson/mac0:2", "jetson:two"} {
		if _, err := ParseFleet(bad); err == nil {
			t.Errorf("ParseFleet(%q) accepted", bad)
		}
	}
}

func TestScaleFleet(t *testing.T) {
	base := []DeviceClass{
		{Platform: fleetPlatforms["jetson"], Count: 1},
		{Platform: fleetPlatforms["macbook"], Count: 1},
		{Platform: fleetPlatforms["ideapad"], Count: 1},
		{Platform: fleetPlatforms["iphone"], Count: 1},
	}
	for _, total := range []int{1, 4, 5, 7, 100, 104} {
		got := ScaleFleet(base, total)
		sum := 0
		for _, c := range got {
			if c.Count < 1 {
				t.Errorf("total %d: class scaled below one device: %+v", total, got)
			}
			sum += c.Count
		}
		want := total
		if want < len(base) {
			want = len(base)
		}
		if sum != want {
			t.Errorf("ScaleFleet(total=%d) assigned %d devices: %+v", total, sum, got)
		}
	}
	// Ratio preservation: a 3:1 mix scaled to 8 stays 6:2.
	mix := []DeviceClass{
		{Platform: fleetPlatforms["jetson"], Count: 3},
		{Platform: fleetPlatforms["iphone"], Count: 1},
	}
	got := ScaleFleet(mix, 8)
	if got[0].Count != 6 || got[1].Count != 2 {
		t.Errorf("ScaleFleet 3:1 to 8 = %d:%d", got[0].Count, got[1].Count)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Strategy: LeastLoaded, ArrivalRate: 2, Queries: 10}.withDefaults()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Strategy: -1, ArrivalRate: 2, Queries: 10},
		{Strategy: LeastLoaded, ArrivalRate: 0, Queries: 10},
		{Strategy: LeastLoaded, ArrivalRate: 2, Queries: 0},
		{Strategy: LeastLoaded, ArrivalRate: 2, Queries: 10, FaultMTBF: 100},
		{Strategy: LeastLoaded, ArrivalRate: 2, Queries: 10, FaultFraction: 1.5},
		{Strategy: LeastLoaded, ArrivalRate: 2, Queries: 10, QueueCap: -1},
	}
	for i, c := range bad {
		if err := c.withDefaults().Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}
