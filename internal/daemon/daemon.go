// Package daemon is the long-running serving front end over the
// internal/run engine: facild embeds a Server, clients POST scenarios
// as JSON (the same schema facilsim records with -record), a single
// runner goroutine advances them in submission order in virtual time,
// and live observability rides alongside — lock-free /metrics
// snapshots, a Chrome-trace ring at /trace, the experiment catalog at
// /experiments. One Server owns one Engine, so platform Systems and
// their memoization caches persist across runs.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/obs"
	"facil/internal/run"
	"facil/internal/serve"
)

// State is a run's lifecycle stage.
type State string

// Run lifecycle: queued → running → done | failed; queued runs that a
// reload or drain displaces become canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = errors.New("daemon: draining, not accepting runs")

// ErrQueueFull rejects a submission while maxQueuedRuns runs wait.
var ErrQueueFull = errors.New("daemon: run queue full")

// maxFinishedRuns caps how many finished (done, failed or canceled)
// runs a Server retains; past it the oldest finished runs are evicted
// and their IDs answer 410 Gone.
const maxFinishedRuns = 256

// maxQueuedRuns caps how many runs may wait for the runner; past it
// Submit fails with ErrQueueFull (429 over HTTP), so a client looping
// on POST /runs cannot grow memory and queued work without bound.
const maxQueuedRuns = 64

// Options configures a Server.
type Options struct {
	// Parallelism bounds each run's sweep worker pool (0 = GOMAXPROCS).
	Parallelism int
	// TraceBuf is the trace ring capacity in events (0 =
	// obs.DefaultCapacity).
	TraceBuf int
	// OutDir, when non-empty, mirrors each run's result files plus
	// manifest.json into OutDir/<run-id>/.
	OutDir string
	// DrainOutage, when positive, is a simulated PIM-lane outage (in
	// virtual seconds) injected into the in-flight run's sims when a
	// drain begins — the shutdown path doubles as a fault drill, so the
	// degradation/migration machinery is exercised on every graceful
	// stop. Zero disables the drill.
	DrainOutage float64
}

// Run is one submitted scenario's lifecycle record. The JSON form is
// what GET /runs returns; the report rides separately under
// /runs/{id}/report.
type Run struct {
	// ID is the server-assigned identifier ("r1", "r2", ...).
	ID string `json:"id"`
	// State is the current lifecycle stage.
	State State `json:"state"`
	// Scenario echoes the submitted scenario.
	Scenario run.Scenario `json:"scenario"`
	// Error carries the failure reason for failed runs.
	Error string `json:"error,omitempty"`
	// Submitted, Started and Finished stamp the lifecycle transitions.
	Submitted time.Time `json:"submitted"`
	// Started is set when the runner picks the run up.
	Started *time.Time `json:"started,omitempty"`
	// Finished is set when the run reaches a terminal state.
	Finished *time.Time `json:"finished,omitempty"`

	report *exp.Report
}

// Server queues scenarios and runs them one at a time on a background
// goroutine. All exported methods are safe for concurrent use; the
// hot observability path (Metrics) reads only atomics and three small
// counters under the mutex.
type Server struct {
	eng         *run.Engine
	tracer      *obs.Tracer
	outDir      string
	drainOutage float64
	start       time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	runs     map[string]*Run
	order    []string
	queue    []string
	seq      int
	active   string
	draining bool
	stopped  bool
	done     chan struct{}
	// finished counts the retained runs in a terminal state; evicted
	// tallies the runs retention dropped, by state; rejected counts the
	// submissions refused with ErrQueueFull.
	finished int
	evicted  RunCounts
	rejected int
}

// New builds a server, its engine and its trace ring, and starts the
// runner goroutine. Call Close to stop it.
func New(opts Options) *Server {
	buf := opts.TraceBuf
	if buf <= 0 {
		buf = obs.DefaultCapacity
	}
	tracer := obs.New(buf)
	s := &Server{
		eng: run.New(run.Options{
			Config:      engine.DefaultConfig(),
			Tool:        "facild",
			Parallelism: opts.Parallelism,
			Tracer:      tracer,
		}),
		tracer:      tracer,
		outDir:      opts.OutDir,
		drainOutage: opts.DrainOutage,
		start:       time.Now(),
		runs:        map[string]*Run{},
		done:        make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.runner()
	return s
}

// Submit validates and enqueues a scenario, returning the queued run's
// snapshot. It fails with ErrDraining during a drain, with ErrQueueFull
// while maxQueuedRuns runs wait, and with the validation error for a
// bad scenario.
func (s *Server) Submit(sc run.Scenario) (Run, error) {
	if err := sc.Validate(); err != nil {
		return Run{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return Run{}, ErrDraining
	}
	if len(s.queue) >= maxQueuedRuns {
		s.rejected++
		return Run{}, ErrQueueFull
	}
	r := s.enqueueLocked(sc)
	return *r, nil
}

// Reload atomically replaces the pending queue: every queued (not yet
// started) run is canceled and the new scenario becomes the next run.
// The in-flight run, if any, completes undisturbed.
func (s *Server) Reload(sc run.Scenario) (Run, error) {
	if err := sc.Validate(); err != nil {
		return Run{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return Run{}, ErrDraining
	}
	s.cancelQueuedLocked()
	r := s.enqueueLocked(sc)
	return *r, nil
}

// enqueueLocked records and queues a new run. Callers hold s.mu.
func (s *Server) enqueueLocked(sc run.Scenario) *Run {
	s.seq++
	r := &Run{
		ID:        fmt.Sprintf("r%d", s.seq),
		State:     StateQueued,
		Scenario:  sc,
		Submitted: time.Now(),
	}
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	s.queue = append(s.queue, r.ID)
	s.cond.Broadcast()
	return r
}

// cancelQueuedLocked moves every queued run to canceled. Callers hold
// s.mu.
func (s *Server) cancelQueuedLocked() {
	now := time.Now()
	for _, id := range s.queue {
		r := s.runs[id]
		r.State = StateCanceled
		r.Finished = &now
	}
	s.finished += len(s.queue)
	s.queue = nil
	s.evictLocked()
}

// evictLocked drops the oldest finished runs, in submission order,
// until at most maxFinishedRuns remain. Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := s.finished - maxFinishedRuns
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		r := s.runs[id]
		if excess == 0 || r.Finished == nil {
			kept = append(kept, id)
			continue
		}
		s.evicted.add(r.State)
		delete(s.runs, id)
		excess--
		s.finished--
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// gone reports whether id names a run this server issued and has since
// evicted.
func (s *Server) gone(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "r"))
	s.mu.Lock()
	defer s.mu.Unlock()
	_, retained := s.runs[id]
	return err == nil && id == "r"+strconv.Itoa(n) && n >= 1 && n <= s.seq && !retained
}

// Get returns a run's snapshot by ID.
func (s *Server) Get(id string) (Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return Run{}, false
	}
	return *r, true
}

// Runs lists every retained run in submission order.
func (s *Server) Runs() []Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Run, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.runs[id])
	}
	return out
}

// Report returns a finished run's report. The second result reports
// whether the run exists; the third whether its report is ready (done,
// or failed with partial results).
func (s *Server) Report(id string) (exp.Report, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return exp.Report{}, false, false
	}
	if r.report == nil {
		return exp.Report{}, true, false
	}
	return *r.report, true, true
}

// Drain stops admission (POST /runs and /reload return 503), cancels
// every queued run, and blocks until the in-flight run — if any —
// completes. Its manifest and result files are flushed by the engine
// before completion, so returning means everything durable is on disk.
// Metrics and report endpoints keep serving during and after a drain.
//
// With Options.DrainOutage set and a run in flight, the drain first
// injects the configured lane outage into the run's live sims (the
// fault drill: the run completes through its degradation policy rather
// than on a healthy fleet). Drain is idempotent; the outage fires only
// on the first call that observes an active run.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drainOutage > 0 && !s.draining && s.active != "" {
		serve.TriggerDrainOutage(s.drainOutage)
	}
	s.draining = true
	s.cancelQueuedLocked()
	for s.active != "" {
		s.cond.Wait()
	}
}

// Close drains the server and stops the runner goroutine.
func (s *Server) Close() {
	s.Drain()
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
}

// runner is the background loop: it pops runs in submission order and
// executes them against the shared engine, advancing the simulator in
// virtual time while /metrics observes the serve-layer counters live.
func (s *Server) runner() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		r := s.runs[id]
		now := time.Now()
		r.State = StateRunning
		r.Started = &now
		s.active = id
		sc := r.Scenario
		s.mu.Unlock()

		var opts run.ExecOpts
		if s.outDir != "" {
			opts.OutDir = filepath.Join(s.outDir, id)
			opts.Format = "json"
		}
		// Drain lets the in-flight run complete rather than cancelling
		// it, so the run's own context is never revoked.
		rep, err := s.eng.Execute(context.Background(), sc, opts)

		s.mu.Lock()
		fin := time.Now()
		r.Finished = &fin
		switch {
		case err != nil:
			r.State = StateFailed
			r.Error = err.Error()
		case len(rep.Manifest.Failed) > 0:
			r.State = StateFailed
			r.Error = fmt.Sprintf("%d of %d experiments failed", len(rep.Manifest.Failed), len(rep.Manifest.Experiments))
			r.report = &rep
		default:
			r.State = StateDone
			r.report = &rep
		}
		s.finished++
		s.evictLocked()
		s.active = ""
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
