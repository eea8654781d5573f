package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/obs"
	"facil/internal/run"
)

// testServer starts a daemon plus its HTTP front end; both are torn
// down with the test.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postScenario submits a scenario body and decodes the run record.
func postScenario(t *testing.T, url, path, body string) (Run, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec Run
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

// waitDone polls a run until it reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) Run {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec, ok := s.Get(id)
		if !ok {
			t.Fatalf("run %s disappeared", id)
		}
		switch rec.State {
		case StateDone, StateFailed, StateCanceled:
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return Run{}
}

// waitRunning polls a run until a worker has picked it up.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec, ok := s.Get(id)
		if !ok {
			t.Fatalf("run %s disappeared", id)
		}
		switch rec.State {
		case StateRunning:
			return
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("run %s finished %s before it was seen running", id, rec.State)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s never started", id)
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, ts := testServer(t, Options{})
	rec, resp := postScenario(t, ts.URL, "/runs", `{"experiments": ["fig3"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if rec.State != StateQueued || rec.ID == "" {
		t.Fatalf("submitted run = %+v", rec)
	}
	fin := waitDone(t, s, rec.ID)
	if fin.State != StateDone {
		t.Fatalf("run finished %s (%s)", fin.State, fin.Error)
	}
	resp2, err := http.Get(ts.URL + "/runs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rep exp.Report
	if err := json.NewDecoder(resp2.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.Tool != "facild" {
		t.Errorf("report tool = %q", rep.Manifest.Tool)
	}
	if len(rep.Results) != 1 || rep.Results[0].ID != "fig3" || rep.Results[0].Error != "" {
		t.Errorf("report results = %+v", rep.Results)
	}
}

func TestSubmitRejectsBadScenarios(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, body := range []string{
		`{"experiments": ["fig99"]}`, // unknown experiment
		`{"quries": 5}`,              // unknown field
		`{"rates": "potato"}`,        // unparsable sweep
	} {
		if _, resp := postScenario(t, ts.URL, "/runs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitAcceptsResilienceSweeps pins that the cluster experiment's
// single-policy and single-MTBF rule does not reject a resilience-only
// multi-policy, multi-MTBF sweep.
func TestSubmitAcceptsResilienceSweeps(t *testing.T) {
	s, ts := testServer(t, Options{})
	body := `{"experiments":["resilience"],"queries":4,"policy":"none,failover","faults":"60,15"}`
	rec, resp := postScenario(t, ts.URL, "/runs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, want 202", body, resp.StatusCode)
	}
	if fin := waitDone(t, s, rec.ID); fin.State != StateDone {
		t.Errorf("run finished %s (%s)", fin.State, fin.Error)
	}
}

// TestOversizedBodyRejected pins the front door's body cap: a scenario
// body past maxBodyBytes gets 413 on both POST endpoints and enqueues
// nothing.
func TestOversizedBodyRejected(t *testing.T) {
	s, ts := testServer(t, Options{})
	big := `{"experiments": ["fig3"], "pad": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/runs", "/reload"} {
		if _, resp := postScenario(t, ts.URL, path, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(big), resp.StatusCode)
		}
	}
	if runs := s.Runs(); len(runs) != 0 {
		t.Errorf("oversized bodies enqueued %d runs", len(runs))
	}
}

func TestExperimentsEndpointMatchesCatalog(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []exp.Info
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exp.Catalog()) {
		t.Errorf("/experiments = %+v, want exp.Catalog()", got)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b obs.Build
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.GoVersion == "" || b.OS == "" {
		t.Errorf("/version = %+v", b)
	}
}

// TestMetricsAdvanceDuringRun pins the live-observability acceptance:
// polling /metrics while a run is in flight yields at least two
// distinct serve-layer event counts, i.e. the metrics really do move
// with the simulator rather than only updating at run boundaries.
func TestMetricsAdvanceDuringRun(t *testing.T) {
	s, ts := testServer(t, Options{})
	rec, _ := postScenario(t, ts.URL, "/runs",
		`{"experiments": ["serving2"], "queries": 2000, "rates": "1,2", "replicas": "1,2"}`)
	distinct := map[int64]bool{}
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		state, _ := s.Get(rec.ID)
		if state.State == StateRunning {
			distinct[m.Serve.Events] = true
		}
		if state.State == StateDone || state.State == StateFailed {
			break
		}
	}
	fin := waitDone(t, s, rec.ID)
	if fin.State != StateDone {
		t.Fatalf("run finished %s (%s)", fin.State, fin.Error)
	}
	if len(distinct) < 2 {
		t.Errorf("saw %d distinct in-flight event counts, want >= 2", len(distinct))
	}
}

func TestTraceEndpointStreamsRing(t *testing.T) {
	s, ts := testServer(t, Options{})
	rec, _ := postScenario(t, ts.URL, "/runs", `{"experiments": ["serving2"], "queries": 100}`)
	if fin := waitDone(t, s, rec.ID); fin.State != StateDone {
		t.Fatalf("run finished %s (%s)", fin.State, fin.Error)
	}
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace ring empty after a trace-aware run")
	}
}

// TestReloadSwapsPendingQueue pins hot reload: queued runs are
// canceled, the replacement becomes the next run, and the in-flight run
// is left to complete.
func TestReloadSwapsPendingQueue(t *testing.T) {
	s, ts := testServer(t, Options{})
	// A run long enough that the next submissions stay queued under it.
	first, _ := postScenario(t, ts.URL, "/runs",
		`{"experiments": ["serving2"], "queries": 2000, "rates": "1,2", "replicas": "1,2"}`)
	second, _ := postScenario(t, ts.URL, "/runs", `{"experiments": ["fig3"]}`)
	// A reload that lands before the worker picks up the first run would
	// swap it out of the queue too.
	waitRunning(t, s, first.ID)
	swapped, resp := postScenario(t, ts.URL, "/reload", `{"experiments": ["tab2"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if fin := waitDone(t, s, second.ID); fin.State != StateCanceled {
		t.Errorf("queued run finished %s, want canceled", fin.State)
	}
	if fin := waitDone(t, s, first.ID); fin.State != StateDone {
		t.Errorf("in-flight run finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin := waitDone(t, s, swapped.ID); fin.State != StateDone {
		t.Errorf("replacement run finished %s (%s), want done", fin.State, fin.Error)
	}
}

// TestDrainClosesAdmission pins the graceful-drain contract: after
// Drain returns, submissions get 503 but observability stays up.
func TestDrainClosesAdmission(t *testing.T) {
	s, ts := testServer(t, Options{})
	rec, _ := postScenario(t, ts.URL, "/runs", `{"experiments": ["tab2"]}`)
	s.Drain()
	if fin, ok := s.Get(rec.ID); !ok || (fin.State != StateDone && fin.State != StateCanceled) {
		t.Errorf("after drain, run state = %+v", fin)
	}
	if _, resp := postScenario(t, ts.URL, "/runs", `{"experiments": ["tab2"]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status %d, want 503", resp.StatusCode)
	}
	if _, resp := postScenario(t, ts.URL, "/reload", `{"experiments": ["tab2"]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain reload status %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Draining {
		t.Error("metrics do not report draining")
	}
}

func TestPimallocEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/pimalloc?rows=1024&cols=1024")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep PimallocReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.MapID == 0 || rep.HugePages == 0 || len(rep.Corners) != 4 {
		t.Errorf("pimalloc report = %+v", rep)
	}
	for _, c := range rep.Corners {
		if c.PIM == "" || c.Conventional == "" {
			t.Errorf("unresolved corner %+v", c)
		}
	}
	if resp2, err := http.Get(ts.URL + "/pimalloc?rows=-3"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusBadRequest {
			t.Errorf("bad rows status %d", resp2.StatusCode)
		}
	}
}

// TestDaemonReportMatchesBatch pins cross-front-end determinism: one
// scenario produces a byte-identical canonical report whether the
// daemon ran it (tracer attached, runner goroutine) or a batch engine
// did (no tracer, caller's goroutine) — observability must not perturb
// simulated results.
func TestDaemonReportMatchesBatch(t *testing.T) {
	sc := run.DefaultScenario()
	sc.Experiments = []string{"fig3", "serving2"}
	sc.Queries = 200
	sc.Rates = "1,2"
	sc.Replicas = "1,2"

	s, _ := testServer(t, Options{})
	rec, err := s.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, s, rec.ID); fin.State != StateDone {
		t.Fatalf("daemon run finished %s (%s)", fin.State, fin.Error)
	}
	daemonRep, _, ready := s.Report(rec.ID)
	if !ready {
		t.Fatal("report not ready after done")
	}

	batch := run.New(run.Options{Config: engine.DefaultConfig(), Tool: "facilsim"})
	batchRep, err := batch.Execute(context.Background(), sc, run.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}

	var dbuf, bbuf bytes.Buffer
	if err := run.Canonical(daemonRep).WriteJSON(&dbuf); err != nil {
		t.Fatal(err)
	}
	if err := run.Canonical(batchRep).WriteJSON(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dbuf.Bytes(), bbuf.Bytes()) {
		t.Errorf("canonical reports differ between daemon and batch:\ndaemon: %.400s\nbatch:  %.400s",
			dbuf.String(), bbuf.String())
	}
}

// TestFinishedRunRetention pins the retention cap: past maxFinishedRuns
// finished runs the oldest are evicted and answer 410 Gone, IDs never
// issued still answer 404, and the metrics keep counting evicted runs.
// The server has no runner goroutine, so every run Reload displaces is
// canceled without simulating anything.
func TestFinishedRunRetention(t *testing.T) {
	s := &Server{runs: map[string]*Run{}, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const total = maxFinishedRuns + 44
	sc := run.Scenario{Experiments: []string{"fig3"}}
	for i := 0; i < total; i++ {
		if _, err := s.Reload(sc); err != nil {
			t.Fatal(err)
		}
	}
	// total reloads leave total-1 canceled runs and one queued.
	evicted := total - 1 - maxFinishedRuns
	if got := len(s.Runs()); got != maxFinishedRuns+1 {
		t.Errorf("retained %d runs, want %d", got, maxFinishedRuns+1)
	}
	if got := s.Metrics().Runs; got.Canceled != total-1 || got.Queued != 1 {
		t.Errorf("metrics run counts = %+v, want %d canceled and 1 queued", got, total-1)
	}
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for path, want := range map[string]int{
		"/runs/r1":                                 http.StatusGone,
		"/runs/r1/report":                          http.StatusGone,
		fmt.Sprintf("/runs/r%d", evicted):          http.StatusGone,
		fmt.Sprintf("/runs/r%d/report", evicted):   http.StatusGone,
		fmt.Sprintf("/runs/r%d", evicted+1):        http.StatusOK,
		fmt.Sprintf("/runs/r%d/report", evicted+1): http.StatusConflict,
		fmt.Sprintf("/runs/r%d", total):            http.StatusOK,
		fmt.Sprintf("/runs/r%d", total+1):          http.StatusNotFound,
		fmt.Sprintf("/runs/r%d/report", total+1):   http.StatusNotFound,
		"/runs/r0":                                 http.StatusNotFound,
		"/runs/r01":                                http.StatusNotFound,
		"/runs/x1":                                 http.StatusNotFound,
	} {
		if got := status(path); got != want {
			t.Errorf("GET %s = %d, want %d", path, got, want)
		}
	}
}

// TestQueueCap floods a runner-less server with submissions: the queue
// stops at maxQueuedRuns, the overflow answers 429 with Retry-After and
// is counted in /metrics, and a reload still replaces the full queue.
func TestQueueCap(t *testing.T) {
	s := &Server{runs: map[string]*Run{}, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const extra = 5
	body := `{"experiments":["tab2"]}`
	for i := 0; i < maxQueuedRuns+extra; i++ {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusAccepted
		if i >= maxQueuedRuns {
			want = http.StatusTooManyRequests
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("submission %d: 429 without Retry-After", i)
			}
		}
		if resp.StatusCode != want {
			t.Fatalf("submission %d = %d, want %d", i, resp.StatusCode, want)
		}
	}
	if _, err := s.Submit(run.Scenario{Experiments: []string{"tab2"}}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Submit on a full queue = %v, want ErrQueueFull", err)
	}
	m := s.Metrics()
	if m.Runs.Queued != maxQueuedRuns || m.Rejected != extra+1 {
		t.Errorf("metrics: %d queued, %d rejected; want %d and %d", m.Runs.Queued, m.Rejected, maxQueuedRuns, extra+1)
	}
	if _, err := s.Reload(run.Scenario{Experiments: []string{"tab2"}}); err != nil {
		t.Fatalf("reload on a full queue: %v", err)
	}
	if got := s.Metrics().Runs; got.Queued != 1 || got.Canceled != maxQueuedRuns {
		t.Errorf("after reload: %+v, want 1 queued and %d canceled", got, maxQueuedRuns)
	}
}

// deadlineRecorder is a ResponseWriter that records the write deadlines
// a handler sets through http.ResponseController.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadlines []time.Time
}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	return nil
}

// TestWriteDeadlines checks that every non-streaming route sets a write
// deadline about writeTimeout ahead, and that the streaming /trace sets
// none.
func TestWriteDeadlines(t *testing.T) {
	s := &Server{runs: map[string]*Run{}, done: make(chan struct{}), tracer: obs.New(64)}
	s.cond = sync.NewCond(&s.mu)
	h := s.Handler()
	body := `{"experiments":["tab2"]}`
	for _, tc := range []struct {
		method, target, body string
		deadline             bool
	}{
		{"POST", "/runs", body, true},
		{"GET", "/runs", "", true},
		{"GET", "/runs/r1", "", true},
		{"GET", "/runs/r1/report", "", true},
		{"POST", "/reload", body, true},
		{"GET", "/metrics", "", true},
		{"GET", "/experiments", "", true},
		{"GET", "/version", "", true},
		{"GET", "/pimalloc?rows=64", "", true},
		{"GET", "/healthz", "", true},
		{"GET", "/trace", "", false},
	} {
		rec := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
		before := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if rec.Code >= 500 {
			t.Errorf("%s %s = %d", tc.method, tc.target, rec.Code)
		}
		if !tc.deadline {
			if len(rec.deadlines) != 0 {
				t.Errorf("%s %s set write deadlines %v, want none", tc.method, tc.target, rec.deadlines)
			}
			continue
		}
		if len(rec.deadlines) != 1 {
			t.Errorf("%s %s set %d write deadlines, want 1", tc.method, tc.target, len(rec.deadlines))
			continue
		}
		if d := rec.deadlines[0]; d.Before(before.Add(writeTimeout)) || d.After(time.Now().Add(writeTimeout)) {
			t.Errorf("%s %s deadline %v not writeTimeout after the request", tc.method, tc.target, d)
		}
	}
}
