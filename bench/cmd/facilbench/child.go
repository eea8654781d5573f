package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"facil/internal/dram"
	"facil/internal/serve"
)

// opResult is one checked operation. Seconds is host wall time, Work the
// op's units of work (experiments, simulated queries, tuner candidates
// or daemon runs), Digest the SHA-256 of its output ("" for a variant
// whose output legitimately differs from the workload's ops). Warmup
// ops are checked but never timed.
type opResult struct {
	Seconds float64 `json:"s"`
	Work    float64 `json:"work"`
	Digest  string  `json:"digest"`
	Err     string  `json:"err,omitempty"`
	Warmup  bool    `json:"warmup,omitempty"`
	// Scale turns Seconds into reference seconds (see calibrator); it
	// is set on timed ops only.
	Scale float64 `json:"scale,omitempty"`
}

// childReport is the JSON document a traced child process prints.
type childReport struct {
	Ops   []opResult         `json:"ops"`
	Layer map[string]float64 `json:"layer"`
}

// session is one workload's state inside a child process: built once by
// the workload's open function, then driven op by op.
type session interface {
	// op runs and checks one operation. A non-nil rec receives spans for
	// the calls the op makes, under the parent span.
	op(ctx context.Context, rec *recorder, parent int) opResult
	close()
}

// pointer is a session with extra traced-run measurements: points at
// other worker counts or configurations, returned as per-layer metrics
// plus the checked ops that produced them.
type pointer interface {
	points(ctx context.Context, n int) (map[string]float64, []opResult)
}

// layered is a session that derives workload-specific per-layer metrics
// from the traced phase's spans (it may add spans of its own).
type layered interface {
	layer(rec *recorder, n int) map[string]float64
}

// childMain runs one workload process. A timed process sets up, runs
// the warm-up op, then serves ops on demand: it prints each checked op
// as one JSON line and waits for "go" (run another) or anything else
// (stop) on stdin, so the parent can time the calibration kernel between
// ops outside this process. A traced process runs traceSession and
// prints one childReport.
func childMain(ctx context.Context, def workloadDef, o runOpts, trace bool) error {
	s, err := def.open(ctx, o.seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", def.Name, err)
	}
	defer s.close()
	var warm []opResult
	if !def.cold {
		op := s.op(ctx, nil, 0)
		op.Warmup = true
		warm = append(warm, op)
	}
	out := json.NewEncoder(os.Stdout)
	if trace {
		layer, ops, err := traceSession(ctx, def, s, o)
		if err != nil {
			return err
		}
		return out.Encode(childReport{Ops: append(warm, ops...), Layer: layer})
	}
	if def.cold {
		return fmt.Errorf("%s ops are facilsim processes; only its traced process runs here", def.Name)
	}
	in := bufio.NewScanner(os.Stdin)
	for op := warm[0]; ; op = s.op(ctx, nil, 0) {
		if err := out.Encode(op); err != nil {
			return err
		}
		if !in.Scan() || in.Text() != "go" {
			return in.Err()
		}
	}
}

// traceSession is the traced run inside one process: untraced ops for
// the overhead baseline, the session's extra points, then n ops with
// spans and the CPU profile on. It writes the Perfetto trace and the
// profile under o.out and returns the per-layer metrics.
func traceSession(ctx context.Context, def workloadDef, s session, o runOpts) (map[string]float64, []opResult, error) {
	n := tracedOps(def, o)
	var ops []opResult
	var untraced []float64
	if !def.cold {
		for i := 0; i < n; i++ {
			op := s.op(ctx, nil, 0)
			ops = append(ops, op)
			untraced = append(untraced, op.Seconds)
		}
	}
	m := map[string]float64{}
	if p, ok := s.(pointer); ok {
		pm, pops := p.points(ctx, n)
		ops = append(ops, pops...)
		for k, v := range pm {
			m[k] = v
		}
	}

	rec := newRecorder()
	var prof bytes.Buffer
	before := takeProbe()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	var traced []float64
	for i := 0; i < n; i++ {
		id := rec.begin("op", 0, 1)
		op := s.op(ctx, rec, id)
		rec.end(id)
		ops = append(ops, op)
		traced = append(traced, op.Seconds)
	}
	pprof.StopCPUProfile()
	after := takeProbe()

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for k, v := range phaseMetrics(before, after, n, shares) {
		m[k] = v
	}
	if l, ok := s.(layered); ok {
		for k, v := range l.layer(rec, n) {
			m[k] = v
		}
	}
	if len(untraced) > 0 {
		m["trace.overhead_x"] = median(traced) / median(untraced)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeTrace(filepath.Join(o.out, "trace-"+def.Name+".json"), rec.list()); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "cpu-"+def.Name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	return m, ops, nil
}

// probe is one snapshot of the process-wide counters a traced phase is
// billed by.
type probe struct {
	wall                time.Time
	cpu                 time.Duration
	mem                 runtime.MemStats
	dramReq, dramCycles int64
	serve               serve.LiveSnapshot
}

func takeProbe() probe {
	var p probe
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.dramReq, p.dramCycles = dram.Global.Requests(), dram.Global.Cycles()
	p.serve = serve.Live.Snapshot()
	p.wall = time.Now()
	return p
}

// phaseMetrics derives the per-layer metrics every workload shares from
// the counters before and after n traced ops and the profile's layer
// shares. Host time per unit of a layer's work is the layer's share of
// the process CPU time over the layer's own count.
func phaseMetrics(before, after probe, n int, shares map[string]float64) map[string]float64 {
	ops := float64(n)
	cpu := float64(after.cpu - before.cpu)
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".cpu_share"] = shares[l]
	}
	requests := float64(after.dramReq - before.dramReq)
	m["dram.requests_per_op"] = requests / ops
	m["dram.sim_cycles_per_op"] = float64(after.dramCycles-before.dramCycles) / ops
	m["dram.host_ns_per_request"] = ratio(shares["dram"]/100*cpu, requests)
	events := float64(after.serve.Events - before.serve.Events)
	m["serve.events_per_op"] = events / ops
	m["serve.host_ns_per_event"] = ratio(shares["serve"]/100*cpu, events)
	m["serve.rejected_per_op"] = float64(after.serve.Rejected-before.serve.Rejected) / ops
	m["serve.failed_per_op"] = float64(after.serve.Failed-before.serve.Failed) / ops
	m["runtime.cpu_util"] = 100 * cpu / (float64(after.wall.Sub(before.wall)) * float64(runtime.GOMAXPROCS(0)))
	m["runtime.alloc_mb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20) / ops
	m["runtime.gc_cycles_per_op"] = float64(after.mem.NumGC-before.mem.NumGC) / ops
	m["runtime.gc_pause_ms_per_op"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / ops
	return m
}

// ratio is x/n, or 0 when the layer did no work (n == 0).
func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// checked builds an op result from a run's time, work, output digest and
// the first error among the run and its output checks.
func checked(secs, work float64, sum string, errs ...error) opResult {
	op := opResult{Seconds: secs, Work: work, Digest: sum}
	for _, err := range errs {
		if err != nil {
			op.Err = err.Error()
			break
		}
	}
	return op
}
