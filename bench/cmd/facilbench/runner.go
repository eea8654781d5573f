package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"facil/internal/stats"
)

// runOpts are one run's settings, shared by facilbench and its children.
type runOpts struct {
	facilsim string  // facilsim binary, for the paper workload
	out      string  // directory for results, traces and CPU profiles
	seed     int64   // workload seed
	seconds  float64 // measured seconds per run
	quick    bool    // one op per process, for smoke runs
}

// processes is the number of fresh child processes a timed run pools
// its ops over, one after another; setup_s and mean_rss_mb are medians
// over them.
const processes = 3

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is one run of one workload: a timed run reports the
// end-to-end metrics, a traced run the per-layer ones.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Digest    string            `json:"output_sha256"`
	Metrics   map[string]metric `json:"metrics"`
	// OpTail is the highest op-time percentile with ten samples beyond
	// it, when a timed run has that many ops.
	OpTail *tail `json:"op_tail,omitempty"`
	// Speed is a timed run's median calibration scale: reference
	// seconds per wall second (below 1 on a machine slower than the
	// reference).
	Speed float64 `json:"speed,omitempty"`
}

// tail is one supported tail percentile of op time.
type tail struct {
	Percentile float64 `json:"percentile"`
	Seconds    float64 `json:"s"`
	N          int     `json:"n"`
}

// units indexes every metric's unit by name.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		m[d.Name] = d.Unit
	}
	return m
}()

func (r *runResult) set(name string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: units[name], N: n}
}

// tally counts ops and failures. Every op whose output is digested must
// match the run's first such op; variants (empty digest) are exempt.
func (r *runResult) tally(ops []opResult) {
	for _, op := range ops {
		r.Attempted++
		if op.Err == "" && op.Digest != "" {
			if r.Digest == "" {
				r.Digest = op.Digest
			} else if op.Digest != r.Digest {
				op.Err = "output differs from the run's first op"
			}
		}
		if op.Err != "" {
			r.Failed++
			if len(r.Errors) < 5 {
				r.Errors = append(r.Errors, op.Err)
			}
		}
	}
}

// runWorkload makes one timed or traced run of def.
func runWorkload(ctx context.Context, def workloadDef, trace bool, o runOpts) runResult {
	r := runResult{Workload: def.Name, Seed: o.seed, Trace: trace, Metrics: map[string]metric{}}
	if trace {
		tracedRun(ctx, &r, def, o)
		return r
	}
	var (
		ops          []opResult
		setups, rsss []float64
	)
	k := processes
	if o.quick {
		k = 1
	}
	cal := newCalibrator()
	if def.cold {
		// Every paper op is a cold facilsim process; set-up is a cold
		// process over the motivation figures alone. It lasts a fraction
		// of a second, so it is sampled three times as often.
		for i := 0; i < 3*k; i++ {
			op, _ := facilsim(ctx, o, setupIDs, 0, cal)
			op.Digest, op.Warmup = "", true
			ops, setups = append(ops, op), append(setups, op.Seconds*op.Scale)
		}
		for start := time.Now(); ; {
			op, rss := facilsim(ctx, o, nil, 0, cal)
			ops, rsss = append(ops, op), append(rsss, rss)
			if o.quick || time.Since(start).Seconds() >= o.seconds {
				break
			}
		}
	} else {
		for i := 0; i < k; i++ {
			pops, setup, rss, err := timedProcess(ctx, def, o, o.seconds/float64(k), cal)
			ops = append(ops, pops...)
			if err != nil {
				ops = append(ops, opResult{Err: err.Error()})
				continue
			}
			setups, rsss = append(setups, setup), append(rsss, rss)
		}
	}
	r.tally(ops)
	var times, scales []float64
	var work, secs float64
	for _, op := range ops {
		if op.Warmup || op.Err != "" {
			continue
		}
		t := op.Seconds * op.Scale
		times, scales = append(times, t), append(scales, op.Scale)
		work, secs = work+op.Work, secs+t
	}
	r.set("setup_s", median(setups), len(setups))
	r.set("op_p50_s", median(times), len(times))
	r.set("work_per_s", ratio(work, secs), len(times))
	r.set("mean_rss_mb", median(rsss), len(rsss))
	r.Speed = median(scales)
	if p, ok := tailPercentile(len(times)); ok {
		r.OpTail = &tail{Percentile: p, Seconds: stats.Percentile(times, p), N: len(times)}
	}
	return r
}

// tracedOps is the number of ops a traced process runs with spans on.
func tracedOps(def workloadDef, o runOpts) int {
	if o.quick || def.cold {
		return 1
	}
	return 3
}

// tracedRun runs def's traced process. For the paper workload the
// untraced baseline and the worker-scaling points are cold facilsim
// processes at one and at nproc workers.
func tracedRun(ctx context.Context, r *runResult, def workloadDef, o runOpts) {
	rep, err := traced(ctx, def, o)
	ops := rep.Ops
	if err != nil {
		ops = append(ops, opResult{Err: err.Error()})
	}
	layer := rep.Layer
	if layer == nil {
		layer = map[string]float64{}
	}
	if def.cold && err == nil {
		serial, _ := facilsim(ctx, o, nil, 1, nil)
		par, _ := facilsim(ctx, o, nil, 0, nil)
		ops = append(ops, serial, par)
		layer["parallel.speedup_x"] = ratio(serial.Seconds, par.Seconds)
		layer["trace.overhead_x"] = ratio(rep.Ops[0].Seconds, serial.Seconds)
	}
	r.tally(ops)
	for _, d := range perLayer() {
		r.set(d.Name, layer[d.Name], tracedOps(def, o))
	}
}

// timedProcess runs one timed child process of facilbench for def:
// set-up and the warm-up op under waitSliced, then ops on demand for
// budget seconds, timing the calibration kernel between ops so each
// op's Scale comes from the kernel runs just before and after it. It
// returns the ops, the set-up time (process start to the end of the
// warm-up op) in reference seconds, and the process's mean RSS in MB
// over its timed ops.
func timedProcess(ctx context.Context, def workloadDef, o runOpts, budget float64, cal *calibrator) ([]opResult, float64, float64, error) {
	cmd, err := childCommand(ctx, def, o, false)
	if err != nil {
		return nil, 0, 0, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	before := cal.measure()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	// The reader stamps when set-up ends (the warm-up op's line), then
	// hands over each op.
	var warm opResult
	setupDone, lines := make(chan time.Time, 1), make(chan opResult)
	go func() {
		defer close(lines)
		dec := json.NewDecoder(stdout)
		if dec.Decode(&warm) != nil {
			close(setupDone)
			return // the process ended; Wait reports how
		}
		setupDone <- time.Now()
		for {
			var op opResult
			if dec.Decode(&op) != nil {
				return
			}
			lines <- op
		}
	}()
	var ops []opResult
	_, setup, before, ok := waitSliced(cmd.Process, cal, before, setupDone)
	mb := 0.0
	if ok {
		ops = append(ops, warm)
		rss := sampleRSS(cmd.Process.Pid)
		deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
		for {
			if _, err := fmt.Fprintln(stdin, "go"); err != nil {
				break
			}
			op, ok := <-lines
			if !ok {
				break
			}
			after := cal.measure()
			op.Scale, before = scale(before, after), after
			ops = append(ops, op)
			if o.quick || time.Now().After(deadline) {
				break
			}
		}
		mb = rss()
	}
	stdin.Close() // anything but "go" stops the child
	for range lines {
	}
	if err := cmd.Wait(); err != nil {
		return ops, 0, 0, fmt.Errorf("%s process: %w", def.Name, err)
	}
	return ops, setup, mb, nil
}

// traced runs def's traced child process and returns its report.
func traced(ctx context.Context, def workloadDef, o runOpts) (childReport, error) {
	var rep childReport
	cmd, err := childCommand(ctx, def, o, true)
	if err != nil {
		return rep, err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s process: %w", def.Name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("%s process report: %w", def.Name, err)
	}
	return rep, nil
}

// childCommand builds the command for one child process of facilbench.
func childCommand(ctx context.Context, def workloadDef, o runOpts, trace bool) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", def.Name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-trace", map[bool]string{false: "0", true: "1"}[trace],
		"-out", o.out,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// rssPeriod is the resident-set sampling interval.
const rssPeriod = 100 * time.Millisecond

// sampleRSS starts sampling a process's resident set from /proc every
// rssPeriod and returns the function that stops sampling and reports the
// samples' mean in MB. A Go process's peak RSS swings by ±15% from run to
// run with GC timing (and, for facilsim, with which experiments overlap),
// so the benchmark reports the time-averaged footprint instead.
func sampleRSS(pid int) func() float64 {
	stop, mean := make(chan struct{}), make(chan float64, 1)
	go func() {
		var sum, n float64
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			if mb, ok := readRSS(pid); ok {
				sum, n = sum+mb, n+1
			}
			select {
			case <-stop:
				mean <- ratio(sum, n)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-mean
	}
}

// readRSS reads a live process's VmRSS in MB.
func readRSS(pid int) (float64, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v / 1024, err == nil
		}
	}
	return 0, false
}
