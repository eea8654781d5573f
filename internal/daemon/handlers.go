package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"facil/internal/cluster"
	"facil/internal/dram"
	"facil/internal/exp"
	"facil/internal/obs"
	"facil/internal/run"
	"facil/internal/serve"
)

// Metrics is the GET /metrics document: a point-in-time snapshot of
// the process-global observability counters (serve-layer live stats,
// DRAM totals, trace-ring occupancy) plus the server's run accounting.
// Every counter is read from atomics, so polling it during a run is
// wait-free with respect to the simulator's hot path.
type Metrics struct {
	// UptimeSeconds is the server's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports whether a drain is in progress (admission closed).
	Draining bool `json:"draining"`
	// Runs counts runs by lifecycle state.
	Runs RunCounts `json:"runs"`
	// Rejected counts submissions refused because the run queue was full.
	Rejected int `json:"rejected"`
	// Serve is the serving simulator's live counter snapshot.
	Serve serve.LiveSnapshot `json:"serve"`
	// Cluster is the fleet router's live counter snapshot.
	Cluster cluster.LiveSnapshot `json:"cluster"`
	// DRAM aggregates every DRAM stream replay in the process.
	DRAM DRAMTotals `json:"dram"`
	// Trace reports the trace ring's occupancy.
	Trace TraceStats `json:"trace"`
}

// RunCounts buckets the server's runs by state. The terminal counts
// include runs the server no longer retains.
type RunCounts struct {
	// Queued counts runs waiting for the runner.
	Queued int `json:"queued"`
	// Running is 1 while a run is in flight.
	Running int `json:"running"`
	// Done counts fully successful runs.
	Done int `json:"done"`
	// Failed counts runs with at least one failed experiment.
	Failed int `json:"failed"`
	// Canceled counts queued runs displaced by a reload or drain.
	Canceled int `json:"canceled"`
}

// add counts one run in state st.
func (c *RunCounts) add(st State) {
	switch st {
	case StateQueued:
		c.Queued++
	case StateRunning:
		c.Running++
	case StateDone:
		c.Done++
	case StateFailed:
		c.Failed++
	case StateCanceled:
		c.Canceled++
	}
}

// DRAMTotals mirrors dram.Global for the metrics document.
type DRAMTotals struct {
	// Streams counts finished stream replays.
	Streams int64 `json:"streams"`
	// Requests counts simulated read+write requests.
	Requests int64 `json:"requests"`
	// Cycles counts simulated burst-clock cycles.
	Cycles int64 `json:"cycles"`
}

// TraceStats reports the trace ring's occupancy.
type TraceStats struct {
	// Events is the ring's current event count.
	Events int `json:"events"`
	// Dropped counts events evicted on ring overflow.
	Dropped uint64 `json:"dropped"`
}

// Metrics snapshots the live counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining,
		Runs:          s.evicted,
		Rejected:      s.rejected,
	}
	for _, r := range s.runs {
		m.Runs.add(r.State)
	}
	s.mu.Unlock()
	m.Serve = serve.Live.Snapshot()
	m.Cluster = cluster.Live.Snapshot()
	m.DRAM = DRAMTotals{
		Streams:  dram.Global.Streams(),
		Requests: dram.Global.Requests(),
		Cycles:   dram.Global.Cycles(),
	}
	m.Trace = TraceStats{Events: s.tracer.Len(), Dropped: s.tracer.Dropped()}
	return m
}

// Handler returns the daemon's HTTP API:
//
//	POST /runs              submit a scenario (run.Scenario JSON, <= 1 MiB), 202 + run;
//	                        429 + Retry-After while maxQueuedRuns runs wait
//	GET  /runs              list runs in submission order
//	GET  /runs/{id}         one run's lifecycle record (410 once evicted)
//	GET  /runs/{id}/report  a finished run's exp.Report JSON (410 once evicted)
//	POST /reload            cancel queued runs, enqueue the new scenario
//	GET  /metrics           live counter snapshot (Metrics JSON)
//	GET  /trace             Chrome trace-event timeline from the ring
//	GET  /experiments       the experiment catalog (exp.Catalog JSON)
//	GET  /version           the binary's build identity
//	GET  /pimalloc          a pimalloc walkthrough on the public Arena API
//	GET  /healthz           liveness probe
//
// Every route but the streaming /trace writes its response under a
// writeTimeout deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			// A writer without deadline support serves without one.
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(writeTimeout))
			h(w, r)
		})
	}
	handle("POST /runs", s.handleSubmit)
	handle("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Runs())
	})
	handle("GET /runs/{id}", s.handleRun)
	handle("GET /runs/{id}/report", s.handleReport)
	handle("POST /reload", s.handleReload)
	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("GET /trace", s.handleTrace)
	handle("GET /experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, exp.Catalog())
	})
	handle("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obs.CurrentBuild())
	})
	handle("GET /pimalloc", s.handlePimalloc)
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

// writeTimeout bounds the write of one non-streaming response, so a
// client that stops reading cannot hold a handler and its connection
// open. It is generous: a reading client fetches any report in far less.
const writeTimeout = time.Minute

// maxBodyBytes caps a POSTed scenario body; a real scenario is a few
// hundred bytes.
const maxBodyBytes = 1 << 20

// decodeScenario decodes a POSTed scenario body read through a
// maxBodyBytes limit. On failure it writes the error response (413 for
// an oversized body, 400 otherwise) and returns false.
func decodeScenario(w http.ResponseWriter, r *http.Request) (run.Scenario, bool) {
	sc, err := run.Decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return run.Scenario{}, false
	}
	return sc, true
}

// handleSubmit enqueues the POSTed scenario.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc, ok := decodeScenario(w, r)
	if !ok {
		return
	}
	rec, err := s.Submit(sc)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// handleReload swaps the pending queue for the POSTed scenario.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	sc, ok := decodeScenario(w, r)
	if !ok {
		return
	}
	rec, err := s.Reload(sc)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

// submitError answers a failed Submit/Reload: 503 while draining, 429
// with a Retry-After hint when the queue is full, 400 otherwise.
func submitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "5")
	}
	httpError(w, status, err)
}

// handleRun serves one run's lifecycle record.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.Get(r.PathValue("id"))
	if !ok {
		s.noSuchRun(w, r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleReport serves a finished run's report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, ok, ready := s.Report(r.PathValue("id"))
	if !ok {
		s.noSuchRun(w, r.PathValue("id"))
		return
	}
	if !ready {
		httpError(w, http.StatusConflict, errors.New("daemon: run not finished"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rep.WriteJSON(w); err != nil {
		// Headers are gone; nothing more to do than drop the connection.
		return
	}
}

// noSuchRun answers a lookup of a run the server does not hold: 410
// for one it issued and evicted, 404 for an ID it never issued.
func (s *Server) noSuchRun(w http.ResponseWriter, id string) {
	if s.gone(id) {
		httpError(w, http.StatusGone, errors.New("daemon: run evicted"))
		return
	}
	httpError(w, http.StatusNotFound, errors.New("daemon: no such run"))
}

// handleTrace streams the trace ring as a Chrome trace-event document.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.tracer.WriteJSON(w)
}

// writeJSON writes an indented JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error document.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
