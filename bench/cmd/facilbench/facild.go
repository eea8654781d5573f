package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"facil/internal/daemon"
	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/run"
	"facil/internal/stats"
)

// facildScenarios are the four documented daemon submissions the
// closed-loop client cycles through: the smoke serving2 run, serving2
// with resilience, fig13, and the smoke rate × replica sweep.
func facildScenarios(seed int64) []run.Scenario {
	base := func(ids ...string) run.Scenario {
		sc := run.DefaultScenario()
		sc.Experiments, sc.Seed = ids, seed
		return sc
	}
	smoke := base("serving2")
	smoke.Queries = 2000
	sweep := smoke
	sweep.Rates, sweep.Replicas = "1,2", "1,2"
	return []run.Scenario{smoke, base("serving2", "resilience"), base("fig13"), sweep}
}

const (
	pollPeriod = 5 * time.Millisecond  // client GET /runs/{id} interval
	readPeriod = 20 * time.Millisecond // open-loop GET /metrics, 50 Hz
)

// facildSession serves daemon.Server.Handler on a loopback listener.
// One closed-loop client submits the scenarios in turn and polls each to
// completion; one open-loop reader GETs /metrics on a fixed schedule.
// Together with the daemon's single runner that is nproc (2) busy
// goroutines and two client connections.
type facildSession struct {
	srv    *daemon.Server
	ts     *httptest.Server
	client *http.Client
	bodies [][]byte
	want   []string // canonical report digest per scenario
	reader *metricsReader
	trips  []roundTrip // round trips made while traced
}

func openFacild(ctx context.Context, seed int64) (session, error) {
	return newFacild(ctx, facildScenarios(seed))
}

// newFacild computes each scenario's reference digest with an
// in-process run.Engine, then starts the daemon, its listener and the
// /metrics reader.
func newFacild(ctx context.Context, scenarios []run.Scenario) (*facildSession, error) {
	f := &facildSession{}
	eng := run.New(run.Options{Config: engine.DefaultConfig(), Tool: "facild", Parallelism: 1})
	for _, sc := range scenarios {
		body, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		sum, err := batchDigest(ctx, eng, sc)
		if err != nil {
			return nil, err
		}
		f.bodies, f.want = append(f.bodies, body), append(f.want, sum)
	}
	f.srv = daemon.New(daemon.Options{Parallelism: 1})
	f.ts = httptest.NewServer(f.srv.Handler())
	f.client = f.ts.Client()
	f.client.Timeout = time.Minute
	f.reader = startReader(f.client, f.ts.URL+"/metrics")
	return f, nil
}

// batchDigest runs sc in process and returns its canonical report
// digest.
func batchDigest(ctx context.Context, eng *run.Engine, sc run.Scenario) (string, error) {
	rep, err := eng.Execute(ctx, sc, run.ExecOpts{})
	if err != nil {
		return "", err
	}
	if len(rep.Manifest.Failed) > 0 {
		return "", fmt.Errorf("facild: batch run of %v failed %v", sc.Experiments, rep.Manifest.Failed)
	}
	return reportDigest(rep)
}

// reportDigest hashes a report's canonical form (wall-clock fields
// stripped), which is identical however the scenario was driven.
func reportDigest(rep exp.Report) (string, error) {
	b, err := json.Marshal(run.Canonical(rep))
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func (f *facildSession) close() {
	f.reader.close()
	f.ts.Close()
	f.srv.Close()
}

// op is one cycle through the four scenarios. It fails if any response
// is not 2xx (the reader's included), a run does not reach done, or a
// report's digest differs from the in-process batch run's.
func (f *facildSession) op(ctx context.Context, rec *recorder, parent int) opResult {
	start := time.Now()
	h := sha256.New()
	for i := range f.bodies {
		rt, sum, err := f.roundTrip(ctx, rec, parent, i)
		if err == nil && sum != f.want[i] {
			err = fmt.Errorf("facild: scenario %d report differs from the in-process batch run", i)
		}
		if err != nil {
			return checked(time.Since(start).Seconds(), float64(i), "", err)
		}
		h.Write([]byte(sum))
		if rec != nil {
			f.trips = append(f.trips, rt)
		}
	}
	op := checked(time.Since(start).Seconds(), float64(len(f.bodies)), hex.EncodeToString(h.Sum(nil)))
	if n := f.reader.failures(); n > 0 {
		op.Err = fmt.Sprintf("facild: %d GET /metrics requests failed", n)
	}
	return op
}

// roundTrip is one submit → report cycle's timing: the daemon's own
// queue wait and execution, and the rest of the client's wait (HTTP,
// JSON and polling granularity).
type roundTrip struct{ queue, exec, overhead time.Duration }

func (f *facildSession) roundTrip(ctx context.Context, rec *recorder, parent, i int) (roundTrip, string, error) {
	start := time.Now()
	rt := rec.begin("facild round trip", parent, 1)
	defer rec.end(rt)
	call := func(name, method, path string, body []byte, want int, v any) error {
		id := rec.begin(name, rt, 1)
		defer rec.end(id)
		return f.call(ctx, method, path, body, want, v)
	}
	var r daemon.Run
	if err := call("POST /runs", http.MethodPost, "/runs", f.bodies[i], http.StatusAccepted, &r); err != nil {
		return roundTrip{}, "", err
	}
	for r.State == daemon.StateQueued || r.State == daemon.StateRunning {
		time.Sleep(pollPeriod)
		if err := call("GET /runs/{id}", http.MethodGet, "/runs/"+r.ID, nil, http.StatusOK, &r); err != nil {
			return roundTrip{}, "", err
		}
	}
	if r.State != daemon.StateDone || r.Started == nil || r.Finished == nil {
		return roundTrip{}, "", fmt.Errorf("facild: run %s ended %s: %s", r.ID, r.State, r.Error)
	}
	var rep exp.Report
	if err := call("GET /runs/{id}/report", http.MethodGet, "/runs/"+r.ID+"/report", nil, http.StatusOK, &rep); err != nil {
		return roundTrip{}, "", err
	}
	total := time.Since(start)
	sum, err := reportDigest(rep)
	return roundTrip{
		queue:    r.Started.Sub(r.Submitted),
		exec:     r.Finished.Sub(*r.Started),
		overhead: total - r.Finished.Sub(r.Submitted),
	}, sum, err
}

// call makes one request and decodes the JSON response into v (nil
// discards it); any status but want is an error.
func (f *facildSession) call(ctx context.Context, method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, f.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	return do(f.client, req, want, v)
}

func do(c *http.Client, req *http.Request, want int, v any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("facild: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// points times the cycle in process, without HTTP, on an engine at one
// worker against one at nproc workers (each warmed by one cycle first).
func (f *facildSession) points(ctx context.Context, n int) (map[string]float64, []opResult) {
	var ops []opResult
	cycle := func(par int) float64 {
		eng := run.New(run.Options{Config: engine.DefaultConfig(), Tool: "facild", Parallelism: par})
		var xs []float64
		for k := 0; k <= n; k++ {
			h := sha256.New()
			secs, err := timed(func() error {
				for i, body := range f.bodies {
					sc, err := run.Decode(bytes.NewReader(body))
					if err != nil {
						return err
					}
					sum, err := batchDigest(ctx, eng, sc)
					if err != nil {
						return err
					}
					if sum != f.want[i] {
						return fmt.Errorf("facild: scenario %d at %d workers differs", i, par)
					}
					h.Write([]byte(sum))
				}
				return nil
			})
			op := checked(secs, float64(len(f.bodies)), hex.EncodeToString(h.Sum(nil)), err)
			op.Warmup = k == 0
			ops = append(ops, op)
			if k > 0 {
				xs = append(xs, secs)
			}
		}
		return median(xs)
	}
	one, all := cycle(1), cycle(runtime.GOMAXPROCS(0))
	return map[string]float64{"parallel.speedup_x": one / all}, ops
}

// layer reports the daemon's queue wait, execution and HTTP overhead
// over the traced round trips, and the /metrics reader's latency and
// lateness over the traced phase (the reads are added to the trace).
func (f *facildSession) layer(rec *recorder, _ int) map[string]float64 {
	var queue, exec, overhead []float64
	for _, rt := range f.trips {
		queue = append(queue, rt.queue.Seconds())
		exec = append(exec, rt.exec.Seconds())
		overhead = append(overhead, float64(rt.overhead)/1e6)
	}
	var lat []float64
	var lateMax float64
	for _, r := range f.reader.since(rec.t0) {
		rec.add("GET /metrics", 0, 2, r.start, r.end)
		lat = append(lat, float64(r.end.Sub(r.due))/1e6)
		lateMax = max(lateMax, float64(r.start.Sub(r.due))/1e6)
	}
	m := map[string]float64{
		"daemon.queue_wait_p50_s":     median(queue),
		"daemon.exec_p50_s":           median(exec),
		"daemon.http_overhead_p50_ms": median(overhead),
		"daemon.metrics_get_p50_ms":   median(lat),
		"daemon.metrics_late_max_ms":  lateMax,
		"daemon.runs_retained":        float64(len(f.srv.Runs())),
	}
	if p, ok := tailPercentile(len(lat)); ok {
		m["daemon.metrics_get_tail_ms"] = stats.Percentile(lat, p)
	}
	return m
}

// metricsReader is the open-loop GET /metrics generator: request i is
// due at start + i·readPeriod whether or not earlier ones finished, so a
// stalled server shows as lateness instead of fewer requests.
type metricsReader struct {
	stop, done chan struct{}
	mu         sync.Mutex
	reads      []read
	failed     int // failures not yet charged to an op
}

// read is one GET: when it was due, sent and answered.
type read struct{ due, start, end time.Time }

func startReader(c *http.Client, url string) *metricsReader {
	m := &metricsReader{stop: make(chan struct{}), done: make(chan struct{})}
	go m.loop(c, url)
	return m
}

func (m *metricsReader) loop(c *http.Client, url string) {
	defer close(m.done)
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * readPeriod)
		select {
		case <-m.stop:
			return
		case <-time.After(time.Until(due)):
		}
		start := time.Now()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err == nil {
			err = do(c, req, http.StatusOK, nil)
		}
		end := time.Now()
		m.mu.Lock()
		m.reads = append(m.reads, read{due: due, start: start, end: end})
		if err != nil {
			m.failed++
		}
		m.mu.Unlock()
	}
}

// failures returns and clears the count of failed reads.
func (m *metricsReader) failures() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.failed
	m.failed = 0
	return n
}

// since returns the reads due at or after t.
func (m *metricsReader) since(t time.Time) []read {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []read
	for _, r := range m.reads {
		if !r.due.Before(t) {
			out = append(out, r)
		}
	}
	return out
}

func (m *metricsReader) close() {
	close(m.stop)
	<-m.done
}
