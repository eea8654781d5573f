package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"facil/internal/engine"
	"facil/internal/llm"
	"facil/internal/pim"
	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/workload"
)

// testFleets caches tiny fleets per class-mask so the fuzz loop pays
// system construction once per mix, not once per input. The model
// choice mirrors exp.PlatformModel (this package cannot import exp).
var testFleets struct {
	mu sync.Mutex
	m  map[uint8]*Fleet
}

func testModel(p soc.Platform) llm.Model {
	switch p.Name {
	case soc.IdeaPad.Name:
		return llm.OPT_6_7B()
	case soc.IPhone.Name:
		return llm.Phi1_5()
	default:
		return llm.Llama3_8B()
	}
}

// testSystem builds a device class's stack, on a derated PIM stack when
// the class overrides its MAC interval.
func testSystem(c DeviceClass) (*engine.System, error) {
	cfg := engine.DefaultConfig()
	if c.MACIntervalCycles > 0 {
		pc := pim.DefaultAiM(c.Platform.Spec.Geometry)
		pc.MACIntervalCycles = c.MACIntervalCycles
		cfg.PIM = &pc
	}
	return engine.NewSystem(c.Platform, testModel(c.Platform), cfg)
}

// testFleet builds (or reuses) a fleet whose classes are selected by
// the low four bits of mask — one device per selected platform, the
// IdeaPad on a derated PIM stack so heterogeneity includes PIM config.
func testFleet(t testing.TB, mask uint8) *Fleet {
	mask &= 0x0F
	if mask == 0 {
		mask = 0x05
	}
	testFleets.mu.Lock()
	defer testFleets.mu.Unlock()
	if testFleets.m == nil {
		testFleets.m = make(map[uint8]*Fleet)
	}
	if fl, ok := testFleets.m[mask]; ok {
		return fl
	}
	all := []DeviceClass{
		{Platform: soc.Jetson, Count: 1},
		{Platform: soc.Macbook, Count: 1},
		{Platform: soc.IdeaPad, Count: 1, MACIntervalCycles: 8},
		{Platform: soc.IPhone, Count: 1},
	}
	var classes []DeviceClass
	for i, c := range all {
		if mask&(1<<i) != 0 {
			classes = append(classes, c)
		}
	}
	fl, err := NewFleet(classes, testSystem)
	if err != nil {
		t.Fatal(err)
	}
	testFleets.m[mask] = fl
	return fl
}

// FuzzCluster drives a tiny heterogeneous cluster through arbitrary
// (strategy, fleet-mix, fault, load, steal) corners and checks the two
// properties every configuration must keep: the run's conservation
// identities hold — including the migration flow when stealing is
// enabled — and runs at Parallelism 3 and 4 reproduce the run at 1
// exactly (the deprecated field has no effect).
func FuzzCluster(f *testing.F) {
	f.Add(uint8(0), uint8(0x0F), uint8(0), uint8(40), uint8(0))
	f.Add(uint8(1), uint8(0x03), uint8(7), uint8(60), uint8(0))
	f.Add(uint8(2), uint8(0x05), uint8(255), uint8(25), uint8(0))
	f.Add(uint8(3), uint8(0x0A), uint8(128), uint8(50), uint8(0))
	f.Add(uint8(1), uint8(0x0F), uint8(255), uint8(60), uint8(0x81)) // steal + faults, threshold 1
	f.Add(uint8(0), uint8(0x03), uint8(130), uint8(44), uint8(0x84)) // steal + faults, threshold 4
	f.Add(uint8(3), uint8(0x05), uint8(0), uint8(70), uint8(0x82))   // steal, no faults (depth only)
	f.Fuzz(func(t *testing.T, stratB, fleetB, faultB, loadB, stealB uint8) {
		fl := testFleet(t, fleetB)
		cfg := Config{
			Strategy:     StrategyKind(int(stratB) % len(Strategies())),
			ArrivalRate:  0.5 + float64(loadB%8)/2,
			Queries:      20 + int(loadB)%60,
			Workload:     workload.AlpacaSpec(),
			Seed:         int64(fleetB)<<8 + int64(loadB),
			SyncInterval: float64(1 + int(faultB)%9),
			QueueCap:     int(loadB) % 5, // 0 = unbounded
			DeadlineTTLT: 30,
			Policy:       serve.Policy(int(faultB) % 3),
		}
		if faultB&0x80 != 0 {
			cfg.FaultMTBF = 20 + float64(faultB%32)
			cfg.FaultMTTR = 5
			cfg.FaultFraction = 0.5
			cfg.FaultSeed = int64(faultB)
			cfg.BreakerThreshold = 1 + int(faultB)%3
			cfg.BreakerCooldown = 30
			cfg.DeviceBreakerThreshold = int(faultB) % 4
		}
		if stealB&0x80 != 0 {
			cfg.Steal = true
			cfg.StealThreshold = int(stealB) % 8 // 0 = breaker-driven only
		}
		run := func(par int) Metrics {
			c := cfg
			c.Parallelism = par
			m, err := Run(context.Background(), fl, c)
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			return m
		}
		serial := run(1)
		if serial.Routed+serial.Shed != serial.Queries {
			t.Errorf("routed %d + shed %d != queries %d", serial.Routed, serial.Shed, serial.Queries)
		}
		if serial.Arrived != serial.Routed+serial.Stolen {
			t.Errorf("arrived %d != routed %d + stolen %d", serial.Arrived, serial.Routed, serial.Stolen)
		}
		if serial.Retracted != serial.Stolen {
			t.Errorf("retracted %d != stolen %d", serial.Retracted, serial.Stolen)
		}
		if !cfg.Steal && serial.Stolen != 0 {
			t.Errorf("stolen %d without stealing enabled", serial.Stolen)
		}
		if got := serial.Completed + serial.Failed + serial.Rejected; got != serial.Routed {
			t.Errorf("terminal %d != routed %d", got, serial.Routed)
		}
		for _, p := range []int{3, 4} {
			if par := run(p); !reflect.DeepEqual(serial, par) {
				t.Errorf("par %d metrics diverge from serial:\n%+v\nvs\n%+v", p, serial, par)
			}
		}
	})
}
