// Command facilsim regenerates the paper's tables and figures from the
// simulation stack.
//
// Usage:
//
//	facilsim [-list] [-par N] [-v] [-format table|csv|json] [-trace FILE]
//	         [-o DIR] [-id LIST] [-queries N] [-seed S] [-scale K]
//	         [-scenario FILE] [-record FILE] [experiment ...]
//
// With no arguments, or with the identifier "all", every experiment runs
// in DESIGN.md order. Run `facilsim -list` for the experiment identifiers
// (rendered from the same registry the facild daemon's GET /experiments
// serves). -id accepts a comma-separated identifier list and merges with
// positional arguments.
//
// The CLI is a thin shell over the internal/run engine: flags assemble
// a run.Scenario, the engine executes it, and the same scenario (as
// JSON) can be replayed here with -scenario FILE or POSTed unchanged to
// a facild daemon. -record FILE writes the effective scenario before
// running, so any invocation can be captured for replay.
//
// Output selection:
//
//   - -format table (default) streams aligned-text tables in
//     command-line order, byte-identical at any parallelism.
//   - -format csv streams each table as CSV preceded by a `# title` line.
//   - -format json emits one Report document at the end: a run manifest
//     (git revision, seed, environment, wall time) plus every
//     experiment's tables as structured data. See EXPERIMENTS.md
//     "Machine-readable output" for the schema.
//   - -o DIR additionally writes per-experiment files (<id>.txt/.csv/
//     .json according to -format) plus manifest.json into DIR.
//   - -trace FILE records a Chrome trace-event timeline of the
//     trace-aware experiments (serving2 lane occupancy, queue depth,
//     admissions) — load it at https://ui.perfetto.dev. -tracebuf bounds
//     the in-memory event ring.
//
// serving2 (the event-driven cooperative serving extension) accepts
// -rates, -replicas and -modes as comma-separated sweep lists plus
// -queuecap and -slo for the admission bound and TTLT goodput deadline.
//
// resilience (the fault-injection extension) additionally accepts
// -faults (comma-separated lane MTBFs in seconds — the fault-rate
// axis), -faultseed (the fault-scenario seed) and -policy
// (comma-separated degradation policies: none, soc-fallback, failover);
// -modes, -queuecap and -slo apply as for serving2.
//
// cluster (the fleet-scale serving extension; `facilsim -id cluster`)
// accepts -strategy (comma-separated balancing strategies: round-robin,
// least-loaded, latency-weighted, slo-tiered), -fleet (a
// platform[/macN]:count comma list, e.g. "jetson:26,ideapad/mac8:26"),
// -devices (rescale the fleet preserving its mix), -rate (cluster-wide
// q/s), -sync (telemetry-barrier interval in virtual seconds), -steal
// (pair every strategy row with a cross-device migration "+steal" row),
// -stealthreshold (the in-system depth that triggers stealing from a
// healthy device; 0 = breaker-driven evacuation only) and -stealscore
// (steal-destination scoring: depth picks the least-loaded device,
// latency minimizes the TTFT-EWMA expected-wait proxy); -queries,
// -seed, -queuecap, -slo, -faultseed, a single -policy and a single
// -faults MTBF apply per device.
//
// maptune (the mapping auto-tuner extension; `facilsim -id maptune`)
// searches generalized page-offset permutation+XOR PA-to-DA mappings
// against per-workload traces and re-validates the Pareto front on the
// full scheduler. -tunebudget bounds the candidates scored per
// (platform, workload) cell and -tuneseed picks the mutation stream.
//
// -par N bounds the worker pool: independent experiment identifiers run
// concurrently, and each ported experiment additionally fans its sweep
// points out over up to N workers (0, the default, selects GOMAXPROCS;
// 1 forces fully serial runs). -v reports per-experiment sweep progress
// on stderr. SIGINT/SIGTERM cancel all in-flight experiments promptly.
//
// Profiling: -cpuprofile/-memprofile write pprof profiles; -pprof ADDR
// serves net/http/pprof on ADDR (e.g. localhost:6060) for live
// inspection of long sweeps. -version prints the module version and
// build info.
//
// A failing experiment does not abort the run: remaining identifiers
// still execute, the failures are summarized on stderr at the end
// (and in the JSON report's manifest), and the exit status is non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"

	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/obs"
	"facil/internal/run"
)

func main() {
	os.Exit(mainErr())
}

// mainErr is main with an exit code, so deferred profile/trace writers
// run before the process exits.
func mainErr() int {
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	version := flag.Bool("version", false, "print the module version and build info, then exit")
	format := flag.String("format", "table", "output format: table, csv or json")
	outDir := flag.String("o", "", "write per-experiment result files plus manifest.json into this directory")
	idList := flag.String("id", "", "comma-separated experiment identifiers (merged with positional arguments)")
	scenarioFile := flag.String("scenario", "", "replay a recorded scenario file (explicit flags override its fields)")
	recordFile := flag.String("record", "", "record the effective scenario as JSON into this file before running")
	traceFile := flag.String("trace", "", "write a Chrome trace-event timeline of trace-aware experiments to this file")
	traceBuf := flag.Int("tracebuf", obs.DefaultCapacity, "trace ring-buffer capacity in events (oldest evicted on overflow)")
	par := flag.Int("par", 0, "max concurrent sweep workers (0 = GOMAXPROCS, 1 = serial)")
	verbose := flag.Bool("v", false, "report sweep progress on stderr")
	// The override flags write straight into the scenario; a replayed
	// -scenario file is loaded over it and the flags parsed again, so
	// explicit flags still beat the file.
	sc := run.DefaultScenario()
	flag.IntVar(&sc.Queries, "queries", 0, "dataset experiments: queries per dataset (0 = default)")
	flag.Int64Var(&sc.Seed, "seed", 0, "dataset experiments: sampling seed (0 = default)")
	flag.Int64Var(&sc.Scale, "scale", 0, "tab1: memory down-scale factor (0 = default 8, 1 = paper-size)")
	flag.StringVar(&sc.Rates, "rates", "", "serving2: comma-separated arrival rates in q/s (empty = default)")
	flag.StringVar(&sc.Replicas, "replicas", "", "serving2: comma-separated replica counts (empty = default)")
	flag.StringVar(&sc.Modes, "modes", "", "serving2: comma-separated modes (serial, cooperative, relayout-hybrid)")
	flag.IntVar(&sc.QueueCap, "queuecap", -1, "serving2/resilience: admission queue capacity (0 = unbounded, -1 = default)")
	flag.Float64Var(&sc.SLO, "slo", -1, "serving2/resilience: TTLT goodput deadline in seconds (0 = none, -1 = default)")
	flag.StringVar(&sc.Faults, "faults", "", "resilience: comma-separated lane MTBFs in seconds (empty = default)")
	flag.Int64Var(&sc.FaultSeed, "faultseed", 0, "resilience: fault-scenario seed (0 = default)")
	flag.StringVar(&sc.Policy, "policy", "", "resilience: comma-separated degradation policies (none, soc-fallback, failover)")
	flag.StringVar(&sc.Strategy, "strategy", "", "cluster: comma-separated balancing strategies (round-robin, least-loaded, latency-weighted, slo-tiered; empty = all)")
	flag.StringVar(&sc.Fleet, "fleet", "", "cluster: device-class roster as platform[/macN]:count comma list (empty = default)")
	flag.IntVar(&sc.Devices, "devices", 0, "cluster: rescale the fleet to this many devices, preserving the class mix (0 = keep roster counts)")
	flag.Float64Var(&sc.Rate, "rate", 0, "cluster: cluster-wide arrival rate in q/s (0 = default)")
	flag.Float64Var(&sc.Sync, "sync", 0, "cluster: telemetry-barrier interval in virtual seconds (0 = default)")
	steal := flag.Bool("steal", true, "cluster: add cross-device migration (+steal) rows to the strategy sweep")
	flag.IntVar(&sc.StealThreshold, "stealthreshold", -1, "cluster: in-system depth that triggers stealing from a healthy device (0 = breaker-driven only, -1 = default)")
	flag.StringVar(&sc.StealScore, "stealscore", "", "cluster: steal-destination scoring, depth or latency (empty = default)")
	flag.IntVar(&sc.TuneBudget, "tunebudget", 0, "maptune: candidate budget per (platform, workload) cell (0 = default)")
	flag.Int64Var(&sc.TuneSeed, "tuneseed", 0, "maptune: mutation-stream seed (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: facilsim [flags] [experiment ...]\n\nexperiments (or all): %s\n\n",
			strings.Join(exp.AllIDs, " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		fmt.Println(obs.CurrentBuild())
		return 0
	}
	if *list {
		for _, info := range exp.Catalog() {
			fmt.Printf("%-10s  %s\n", info.ID, info.Title)
		}
		return 0
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "facilsim: unknown -format %q (want table, csv or json)\n", *format)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "facilsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "facilsim: -memprofile: %v\n", err)
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "facilsim: -pprof: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scenarioFile != "" {
		var err error
		if sc, err = run.Load(*scenarioFile); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -scenario: %v\n", err)
			return 1
		}
		flag.Parse()
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "steal" {
			sc.Steal = 0
			if *steal {
				sc.Steal = 1
			}
		}
	})
	// Positional/-id identifiers replace the experiment list when given.
	ids := flag.Args()
	for _, id := range strings.Split(*idList, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) > 0 {
		sc.Experiments = ids
	}
	if *recordFile != "" {
		if err := sc.Save(*recordFile); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -record: %v\n", err)
			return 1
		}
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.New(*traceBuf)
	}
	opts := run.Options{
		Config:      engine.DefaultConfig(),
		Tool:        "facilsim",
		Parallelism: *par,
		Tracer:      tracer,
	}
	if *verbose {
		var mu sync.Mutex
		opts.Progress = func(experiment string, done, total int) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "facilsim: %s: %d/%d\n", experiment, done, total)
			mu.Unlock()
		}
	}
	eng := run.New(opts)

	report, err := eng.Execute(ctx, sc, run.ExecOpts{
		OutDir: *outDir,
		Format: *format,
		Sink: func(res exp.Result) error {
			if res.Error != "" {
				fmt.Fprintf(os.Stderr, "facilsim: %s: %s\n", res.ID, res.Error)
				return nil
			}
			if *format == "json" {
				return nil // bundled into the final Report document
			}
			if err := res.Write(os.Stdout, *format); err != nil {
				return err
			}
			if *format == "table" {
				fmt.Printf("[%s finished in %.1fs]\n\n", res.ID, res.ElapsedSeconds)
			}
			return nil
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "facilsim: %v\n", err)
		return 1
	}

	if *format == "json" {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: %v\n", err)
			return 1
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "facilsim: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "facilsim: trace: %s (%d events, %d dropped)\n",
			*traceFile, tracer.Len(), tracer.Dropped())
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "facilsim: DRAM totals: %d stream replays, %d requests, %d cycles, %d commands, %d queue entries visited\n",
			dram.Global.Streams(), dram.Global.Requests(), dram.Global.Cycles(), dram.Global.Commands(), dram.Global.Visited())
	}
	if failed := report.Manifest.Failed; len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "facilsim: %d of %d experiments failed: %s\n",
			len(failed), len(report.Manifest.Experiments), strings.Join(failed, " "))
		return 1
	}
	return 0
}
