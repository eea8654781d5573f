// Package parallel is the sweep substrate for the experiment stack: a
// bounded worker pool that evaluates independent points of a parameter
// grid concurrently while keeping results byte-identical to a serial
// run.
//
// Determinism contract: results land in the output slice by point index,
// never by completion order, and every point's computation is independent
// of every other point's, so a sweep at any worker count produces exactly
// the same output slice. Callers that reduce results (geomeans, rendered
// tables) therefore emit identical bytes whether the sweep ran on one
// worker or many.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// options collects the sweep knobs.
type options struct {
	workers  int
	progress func(done, total int)
}

// Option tunes a Sweep.
type Option func(*options)

// Workers bounds the worker pool. n <= 0 selects runtime.GOMAXPROCS(0);
// the pool never exceeds the point count.
func Workers(n int) Option {
	return func(o *options) { o.workers = n }
}

// Progress installs a completion callback, invoked once per finished
// point with the number of points done so far and the total. Calls are
// serialized by the sweep (the callback needs no locking of its own) but
// run on worker goroutines, the caller's among them, so it should return
// quickly.
func Progress(fn func(done, total int)) Option {
	return func(o *options) { o.progress = fn }
}

// Sweep evaluates fn over every point with a bounded worker pool and
// returns the results indexed like points.
//
// Cancellation: the first point error cancels the context passed to the
// remaining fn invocations and stops new points from being dispatched;
// Sweep then returns the error of the lowest-index failing point among
// those that ran. If ctx itself is cancelled, Sweep returns ctx.Err()
// promptly (as soon as in-flight points notice the cancellation).
func Sweep[P, R any](ctx context.Context, points []P, fn func(ctx context.Context, point P) (R, error), opts ...Option) ([]R, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n := len(points)
	if n == 0 {
		return nil, ctx.Err()
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]R, n)
	var (
		next     atomic.Int64 // the next unclaimed point index
		mu       sync.Mutex
		done     int
		firstErr error
		errIdx   = n // lowest failing index seen so far
	)
	// work claims points in index order and runs them until none is left
	// or the sweep is cancelled.
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n || sctx.Err() != nil {
				return
			}
			r, err := fn(sctx, points[i])
			mu.Lock()
			if err != nil {
				// Points that merely echo the sweep's own
				// cancellation do not outrank the causing error.
				if i < errIdx && !(errors.Is(err, context.Canceled) && sctx.Err() != nil && ctx.Err() == nil) {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				cancel()
				continue
			}
			results[i] = r
			done++
			if o.progress != nil {
				o.progress(done, n)
			}
			mu.Unlock()
		}
	}
	// The calling goroutine is one of the workers, so a one-worker sweep
	// starts no goroutine.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
