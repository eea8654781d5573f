package exp

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"facil/internal/cluster"
	"facil/internal/soc"
	"facil/internal/stats"
)

// goldenClusterConfig keeps the cluster golden cheap: an 8-device
// heterogeneous fleet (two per platform, the IdeaPad pair on a derated
// PIM stack), 600 queries, and a hostile-enough fault diet to exercise
// the router health breakers.
func goldenClusterConfig() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.Queries = 600
	// 0.45 q/s per device strains the fleet enough that queues build on
	// the slow/faulted devices — the regime where migration has work to
	// move (at the default 0.25 q/s every strategy's steal row is a
	// no-op and the goldens would pin nothing).
	cfg.Rate = 3.6
	cfg.Fleet = []cluster.DeviceClass{
		{Platform: soc.Jetson, Count: 2},
		{Platform: soc.Macbook, Count: 2},
		{Platform: soc.IdeaPad, Count: 2, MACIntervalCycles: 8},
		{Platform: soc.IPhone, Count: 2},
	}
	cfg.QueueCap = 8
	cfg.FaultMTBF = 120
	cfg.FaultMTTR = 20
	cfg.FaultFraction = 0.5
	// The default steal threshold sits below the default queue cap (16)
	// but above this config's cap of 8 — depth would never reach it, so
	// scale it down with the queue.
	cfg.StealThreshold = 6
	return cfg
}

// renderCluster concatenates the experiment's tables, the byte string
// every cluster regression test compares.
func renderCluster(t *testing.T, l *Lab, cfg ClusterConfig) string {
	t.Helper()
	tabs, err := l.Cluster(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestClusterGolden pins the rendered fleet tables on the cheap config.
func TestClusterGolden(t *testing.T) {
	checkGolden(t, "cluster_small", renderCluster(t, testLab(), goldenClusterConfig()))
}

// TestClusterScaleGolden pins the acceptance-scale run: 1e5 queries over
// the default 104-device heterogeneous fleet, all four strategies.
func TestClusterScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fleet-scale golden case in -short mode")
	}
	checkGolden(t, "cluster_scale", renderCluster(t, testLab(), DefaultClusterConfig()))
}

// TestClusterDeterministic is the par1/parN acceptance criterion: the
// same fleet and seeds render byte-identically when the (strategy,
// steal) cells run serially and when they run on 8 workers over one
// shared fleet (and across repeated runs, so no state leaks between
// runs of one lab); and each cell run directly with its devices fanned
// out over 8 workers matches the experiment's serial-device cell.
func TestClusterDeterministic(t *testing.T) {
	cfg := goldenClusterConfig()
	render := func(par int) string {
		l := freshLab()
		l.SetParallelism(par)
		return renderCluster(t, l, cfg)
	}
	serial := render(1)
	if again := render(1); again != serial {
		t.Errorf("repeated serial cluster runs differ:\n%s\nvs\n%s", serial, again)
	}
	if par := render(8); par != serial {
		t.Errorf("par 8 cluster run differs from serial:\n%s\nvs\n%s", serial, par)
	}

	l := freshLab()
	mets, err := l.ClusterCompute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := cluster.NewFleet(cfg.Fleet, l.clusterSystem)
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range cfg.clusterConfigs() {
		rc.Parallelism = 8
		m, err := cluster.Run(context.Background(), fl, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, mets[i]) {
			t.Errorf("run %d (%s, steal %v): device fan-out changed the metrics:\n%+v\nvs\n%+v", i, rc.Strategy, rc.Steal, m, mets[i])
		}
	}
}

// TestClusterAccounting checks the router's conservation identities on
// every (strategy, steal) cell of the cheap config: each arrival is
// routed or shed, every routed query reaches a device (device arrivals
// exceed routed by exactly the migrations), the migration flow balances
// (every retraction is a steal), and every routed query reaches a
// terminal outcome once the drain completes.
func TestClusterAccounting(t *testing.T) {
	mets, err := testLab().ClusterCompute(context.Background(), goldenClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawSteal := false
	for _, m := range mets {
		name := m.Strategy.String()
		if m.Steal {
			name += "+steal"
			sawSteal = true
		}
		if m.Routed+m.Shed != m.Queries {
			t.Errorf("%s: routed %d + shed %d != queries %d", name, m.Routed, m.Shed, m.Queries)
		}
		if m.Arrived != m.Routed+m.Stolen {
			t.Errorf("%s: device arrivals %d != routed %d + stolen %d", name, m.Arrived, m.Routed, m.Stolen)
		}
		if m.Retracted != m.Stolen {
			t.Errorf("%s: retracted %d != stolen %d", name, m.Retracted, m.Stolen)
		}
		if !m.Steal && m.Stolen != 0 {
			t.Errorf("%s: stolen %d without stealing enabled", name, m.Stolen)
		}
		if got := m.Completed + m.Failed + m.TimedOut + m.Rejected; got != m.Routed {
			t.Errorf("%s: terminal outcomes %d != routed %d", name, got, m.Routed)
		}
		shed := 0
		for _, s := range m.ShedByClass {
			shed += s
		}
		if shed != m.Shed {
			t.Errorf("%s: per-class shed %d != shed %d", name, shed, m.Shed)
		}
		var routed, completed int
		for _, pcm := range m.PerClass {
			routed += pcm.Routed
			completed += pcm.Completed
		}
		if routed != m.Routed || completed != m.Completed {
			t.Errorf("%s: per-class sums routed %d/completed %d != %d/%d",
				name, routed, completed, m.Routed, m.Completed)
		}
		if !finite(m.TTFT) || !finite(m.TTLT) {
			t.Errorf("%s: non-finite latency quantiles %+v %+v", name, m.TTFT, m.TTLT)
		}
	}
	if !sawSteal {
		t.Error("accounting sweep never exercised a stealing run")
	}
}

// finite reports whether every quantile is a finite number.
func finite(q stats.Quantiles) bool {
	for _, v := range []float64{q.Mean, q.P50, q.P95, q.P99} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
