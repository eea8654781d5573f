package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestSweepOrdersResultsByIndex exercises a many-point, many-worker sweep
// (the -race build makes this a data-race probe of the pool itself) and
// checks that results land by point index, not completion order.
func TestSweepOrdersResultsByIndex(t *testing.T) {
	points := make([]int, 200)
	for i := range points {
		points[i] = i
	}
	got, err := Sweep(context.Background(), points, func(_ context.Context, p int) (int, error) {
		// Stagger completions so late indexes often finish first.
		if p%7 == 0 {
			time.Sleep(time.Millisecond)
		}
		return p * p, nil
	}, Workers(16))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, r, i*i)
		}
	}
}

// TestSweepMatchesSerial runs the same sweep at worker counts 1 and 8 and
// requires identical result slices — the determinism contract every
// experiment table rests on.
func TestSweepMatchesSerial(t *testing.T) {
	points := make([]float64, 64)
	for i := range points {
		points[i] = float64(i) / 3
	}
	fn := func(_ context.Context, p float64) (string, error) {
		return fmt.Sprintf("%.6f", p*p+1), nil
	}
	serial, err := Sweep(context.Background(), points, fn, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(context.Background(), points, fn, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("results diverge at %d: serial %q parallel %q", i, serial[i], par[i])
		}
	}
}

// TestSweepFirstErrorCancels checks that a failing point cancels the
// context seen by other points and that the lowest-index error wins.
// Points are dispatched in index order, so with four workers points 0-2
// are in flight beside point 3, which fails only once all three have
// started; they then block until the cancellation reaches them. The
// fail-safe timeout only bounds a broken Sweep, and fails the test.
func TestSweepFirstErrorCancels(t *testing.T) {
	const failSafe = 30 * time.Second
	errBoom := errors.New("boom")
	started := make(chan struct{}, 3)
	var cancelled atomic.Int64
	points := make([]int, 50)
	for i := range points {
		points[i] = i
	}
	_, err := Sweep(context.Background(), points, func(ctx context.Context, p int) (int, error) {
		if p == 3 {
			for i := 0; i < 3; i++ {
				select {
				case <-started:
				case <-time.After(failSafe):
					t.Error("points 0-2 never started beside point 3")
				}
			}
			return 0, errBoom
		}
		if p < 3 {
			started <- struct{}{}
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return 0, ctx.Err()
		case <-time.After(failSafe):
			t.Errorf("point %d never saw the cancellation", p)
			return p, nil
		}
	}, Workers(4))
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	if got := cancelled.Load(); got < 3 {
		t.Errorf("%d in-flight points observed cancellation, want 3", got)
	}
}

// TestSweepContextCancellation cancels the parent context mid-sweep and
// requires a prompt return with ctx.Err().
func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	go func() {
		<-started
		cancel()
	}()
	points := make([]int, 100)
	begin := time.Now()
	_, err := Sweep(ctx, points, func(ctx context.Context, _ int) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Second):
			return 0, nil
		}
	}, Workers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSweepSerialPathHonorsCancelledContext checks that a one-worker
// sweep, which runs its points one after another, stops between points
// once the context dies.
func TestSweepSerialPathHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	points := make([]int, 10)
	_, err := Sweep(ctx, points, func(_ context.Context, _ int) (int, error) {
		ran++
		cancel()
		return 0, nil
	}, Workers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d points after cancellation, want 1", ran)
	}
}

// TestSweepProgress checks the progress callback fires once per point
// with a final (total, total) call, at both worker counts.
func TestSweepProgress(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var calls int
		var last int
		points := make([]int, 30)
		_, err := Sweep(context.Background(), points, func(_ context.Context, p int) (int, error) {
			return p, nil
		}, Workers(workers), Progress(func(done, total int) {
			calls++
			last = done
			if total != len(points) {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, len(points))
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(points) || last != len(points) {
			t.Errorf("workers=%d: %d progress calls (last %d), want %d", workers, calls, last, len(points))
		}
	}
}

// TestSweepEmpty returns immediately with no error.
func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(context.Background(), nil, func(_ context.Context, _ int) (int, error) {
		t.Fatal("fn called for empty sweep")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty sweep = (%v, %v)", got, err)
	}
}
