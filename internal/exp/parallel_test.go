package exp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"facil/internal/cluster"
	"facil/internal/engine"
	"facil/internal/soc"
)

// TestParallelMatchesSerial is the determinism contract: a sweep fanned
// out over many workers must render byte-identical tables to a serial
// run. Exercised on fig13 (platform x prefill grid) and fig14 (TTLT
// grid); -race covers the shared System caches.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-registry parallel/serial comparison in -short mode (TestServing2Deterministic keeps a fast variant)")
	}
	ctx := context.Background()
	// One lab serves both runs: the serial pass populates the shared
	// System caches, the parallel pass then hammers them from 8 workers
	// (exercised under -race), and both must render identical bytes.
	l := freshLab()

	l.SetParallelism(1)
	s13, err := l.Fig13(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s14, err := l.Fig14(ctx, soc.Jetson)
	if err != nil {
		t.Fatal(err)
	}

	l.SetParallelism(8)
	p13, err := l.Fig13(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p14, err := l.Fig14(ctx, soc.Jetson)
	if err != nil {
		t.Fatal(err)
	}

	if s13.String() != p13.String() {
		t.Errorf("fig13 parallel table diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s13, p13)
	}
	if s14.String() != p14.String() {
		t.Errorf("fig14 parallel table diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s14, p14)
	}
}

// TestRunHonorsCancellation verifies a cancelled context aborts an
// experiment promptly with the context's error.
func TestRunHonorsCancellation(t *testing.T) {
	l := freshLab()
	l.SetParallelism(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := l.Run(ctx, "fig13", DefaultConfigs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// TestProgressReporting checks the lab-level progress plumbing on a
// synthetic sweep: one tick per point, tagged with the experiment name.
// Progress callbacks are serialized by the sweep, so the unlocked append
// is safe (and -race verifies that claim).
func TestProgressReporting(t *testing.T) {
	l := freshLab()
	l.SetParallelism(4)
	type tick struct {
		exp         string
		done, total int
	}
	var ticks []tick
	l.SetProgress(func(experiment string, done, total int) {
		ticks = append(ticks, tick{experiment, done, total})
	})
	points := make([]int, 24)
	for i := range points {
		points[i] = i
	}
	if _, err := sweep(context.Background(), l, "demo", points, func(ctx context.Context, p int) (int, error) {
		return p * p, nil
	}); err != nil {
		t.Fatal(err)
	}
	want := len(points)
	if len(ticks) != want {
		t.Fatalf("got %d progress ticks, want %d", len(ticks), want)
	}
	for _, tk := range ticks {
		if tk.exp != "demo" || tk.total != want {
			t.Errorf("tick = %+v, want experiment demo total %d", tk, want)
		}
	}
	if last := ticks[len(ticks)-1]; last.done != want {
		t.Errorf("final tick done = %d, want %d", last.done, want)
	}
}

// TestLabSystemStorm races eight goroutines on a fresh Lab's System and
// clusterSystem, each calling in a different order: every key must
// build one engine.System. A default class shares its platform's
// System; a MAC-interval override gets its own.
func TestLabSystemStorm(t *testing.T) {
	l := NewLab(engine.DefaultConfig())
	calls := []func() (*engine.System, error){
		func() (*engine.System, error) { return l.System(soc.Jetson) },
		func() (*engine.System, error) { return l.clusterSystem(cluster.DeviceClass{Platform: soc.Jetson}) },
		func() (*engine.System, error) {
			return l.clusterSystem(cluster.DeviceClass{Platform: soc.Jetson, MACIntervalCycles: 8})
		},
		func() (*engine.System, error) { return l.System(soc.IPhone) },
	}
	const workers = 8
	got := make([][]*engine.System, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*engine.System, len(calls))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range calls {
				c := (i + g) % len(calls)
				s, err := calls[c]()
				if err != nil {
					t.Error(err)
					return
				}
				got[g][c] = s
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for c, s := range got[g] {
			if s != got[0][c] {
				t.Errorf("goroutine %d call %d got System %p, goroutine 0 got %p", g, c, s, got[0][c])
			}
		}
	}
	jetson, def, mac8, iphone := got[0][0], got[0][1], got[0][2], got[0][3]
	if def != jetson {
		t.Error("the default Jetson class did not share the Jetson System")
	}
	if mac8 == jetson || iphone == jetson || mac8 == iphone {
		t.Error("distinct keys share a System")
	}
}
