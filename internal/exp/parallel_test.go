package exp

import (
	"context"
	"errors"
	"testing"
	"time"

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
