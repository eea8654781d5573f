// Command facilbench is the repository's benchmark: one end-to-end and
// per-layer measurement of the whole stack over four workloads (paper,
// fleet, maptune, facild). It times calls into public APIs from outside
// — the facilsim binary, cluster.Run, exp.Lab.MapTuneCompute and the
// tuner, daemon.Server.Handler over loopback HTTP — checks every op's
// output, and prints every metric by name with its unit and sample count.
//
// bench/run.sh builds facilsim and facilbench from source and passes
// the flags through. One run of one workload (the last stdout line is a
// JSON result):
//
//	bench/run.sh -workload fleet -seed 3 -seconds 20 -trace 0
//
// A timed run (-trace 0) pools ops over three fresh child processes and
// reports the end-to-end metrics; a traced run (-trace 1) runs one more
// process with spans and the CPU profile on, writes
// <out>/trace-<workload>.json (Perfetto) and <out>/cpu-<workload>.pprof,
// and reports the per-layer metrics. Every workload draws its inputs
// from -seed alone.
//
// Full sets, written to <out>/results.json, and their comparison:
//
//	bench/run.sh [-workloads paper,fleet,maptune,facild] [-runs 3] [-seed 1] [-quick]
//	bench/run.sh -compare parent.json change.json
//
// The exit status is non-zero when any output check fails (or, with
// -compare, when a metric regresses past its bound or an output digest
// differs). See bench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name, Why string
	// cold marks the workload whose every op is a fresh facilsim
	// process: it has no warm-up op, and its traced process runs one op.
	cold bool
	open func(ctx context.Context, seed int64) (session, error)
}

var workloads = []workloadDef{
	{Name: "paper", cold: true, open: openPaper,
		Why: "every paper experiment in a cold facilsim process, as a user regenerates the paper; dram, engine and exp do the work"},
	{Name: "fleet", open: openFleet,
		Why: "one 104-device cluster.Run on 1e5 Alpaca queries: the router's barrier, steal and collect cost over serve and stats"},
	{Name: "maptune", open: openMaptune,
		Why: "the mapping tuner's trace capture, 256-candidate search and re-validation: short DRAM replays instead of long streams"},
	{Name: "facild", open: openFacild,
		Why: "submit-to-report round trips through the facild HTTP API beside a 50 Hz /metrics reader: the network front door"},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var (
		workload = flag.String("workload", "", "run this workload once; the last stdout line is the JSON result")
		names    = flag.String("workloads", "", "full set: comma-separated workloads to run (default all)")
		runs     = flag.Int("runs", 3, "full set: timed runs per workload (each set ends with one traced run per workload)")
		seed     = flag.Int64("seed", 1, "workload seed; the programs under test receive only the inputs it generates")
		seconds  = flag.Float64("seconds", 20, "measured seconds per timed run")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 runs the traced process and reports per-layer metrics")
		quick    = flag.Bool("quick", false, "one op per process, for smoke runs")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, traces and CPU profiles")
		compare  = flag.Bool("compare", false, "compare two results files: -compare parent.json change.json")
		fsim     = flag.String("facilsim", "", "facilsim binary for the paper workload (bench/run.sh builds it)")
		child    = flag.String("child", "", "internal: run one process of this workload and print its report")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := runOpts{facilsim: *fsim, out: *out, seed: *seed, seconds: *seconds, quick: *quick}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "facilbench: "+format+"\n", a...)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		return fail("-trace must be 0 or 1, got %d", *trace)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail("-compare takes two results files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *child != "" {
		def, ok := lookup(*child)
		if !ok {
			return fail("unknown workload %q", *child)
		}
		if err := childMain(ctx, def, o, *trace == 1); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	defs, list := workloads, *names
	if *workload != "" {
		list = *workload
	}
	if list != "" {
		defs = nil
		for _, name := range strings.Split(list, ",") {
			def, ok := lookup(strings.TrimSpace(name))
			if !ok {
				return fail("unknown workload %q", name)
			}
			defs = append(defs, def)
		}
	}
	if *fsim == "" {
		return fail("-facilsim is required (run bench/run.sh, which builds it)")
	}

	if *workload != "" {
		r := runWorkload(ctx, defs[0], *trace == 1, o)
		printRun(os.Stdout, r)
		if err := resultLine(os.Stdout, r); err != nil {
			return fail("%v", err)
		}
		return exitCode(r)
	}

	set := resultsFile{GoVersion: runtime.Version(), NumCPU: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds}
	code := 0
	for _, def := range defs {
		for i := 0; i <= *runs; i++ {
			r := runWorkload(ctx, def, i == *runs, o)
			printRun(os.Stdout, r)
			set.Runs = append(set.Runs, r)
			code = max(code, exitCode(r))
		}
	}
	if err := set.write(filepath.Join(o.out, "results.json")); err != nil {
		return fail("%v", err)
	}
	summarize(os.Stdout, set)
	return code
}

func exitCode(r runResult) int {
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// printRun prints one `workload metric value unit n=` line per metric,
// in definition order, plus the output digest and any op errors.
func printRun(w io.Writer, r runResult) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, d.Name, m.Value, m.Unit, m.N)
	}
	if t := r.OpTail; t != nil {
		fmt.Fprintf(w, "%s op_p%g_s %.6g s n=%d\n", r.Workload, t.Percentile, t.Seconds, t.N)
	}
	if r.Speed > 0 {
		fmt.Fprintf(w, "%s machine_speed %.4g reference-s/s\n", r.Workload, r.Speed)
	}
	fmt.Fprintf(w, "%s output_sha256 %s attempted=%d failed=%d\n", r.Workload, r.Digest, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "facilbench: %s: %s\n", r.Workload, e)
	}
}

// resultLine prints the run as one JSON object: whether every output
// check passed, the ops attempted and failed, and each metric's value
// and unit.
func resultLine(w io.Writer, r runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}
