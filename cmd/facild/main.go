// Command facild is the long-running serving daemon over the same run
// engine as the facilsim CLI. Clients POST scenarios (the JSON schema
// facilsim records with -record) to /runs, a single background runner
// advances them in virtual time, and the process exposes live
// observability while runs are in flight:
//
//	GET  /metrics           lock-free counter snapshot (serve, DRAM, trace, runs)
//	GET  /trace             Chrome trace-event timeline (load in Perfetto)
//	GET  /runs              run lifecycle records; /runs/{id}/report for results
//	POST /reload            swap the pending queue for a new scenario
//	GET  /experiments       the experiment catalog (same source as facilsim -list)
//	GET  /version           build identity; GET /healthz liveness
//	GET  /pimalloc          live walkthrough of the public Arena mapping API
//
// SIGTERM/SIGINT drain gracefully: admission closes (503 on POST),
// queued runs are canceled, the in-flight run completes and flushes its
// manifest/exports, then the process exits 0. With -drainoutage N the
// drain doubles as a fault drill: a simulated N-virtual-second PIM-lane
// outage is injected into the in-flight run's sims, so every graceful
// stop exercises the degradation machinery and logs the outcome
// counters. See DESIGN.md §11 and EXPERIMENTS.md for curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"facil/internal/daemon"
	"facil/internal/obs"
	"facil/internal/serve"
)

func main() {
	os.Exit(mainErr())
}

// mainErr is main with an exit code so deferred cleanup runs.
func mainErr() int {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	par := flag.Int("par", 0, "max concurrent sweep workers per run (0 = GOMAXPROCS)")
	traceBuf := flag.Int("tracebuf", obs.DefaultCapacity, "trace ring-buffer capacity in events")
	outDir := flag.String("o", "", "mirror each run's result files plus manifest.json into DIR/<run-id>/")
	drainOutage := flag.Float64("drainoutage", 0, "inject a simulated PIM-lane outage of this many virtual seconds into the in-flight run when draining (0 = off)")
	version := flag.Bool("version", false, "print the module version and build info, then exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.CurrentBuild())
		return 0
	}

	log.SetPrefix("facild: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	srv := daemon.New(daemon.Options{
		Parallelism: *par,
		TraceBuf:    *traceBuf,
		OutDir:      *outDir,
		DrainOutage: *drainOutage,
	})
	hs := newHTTPServer(*addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (%s)", *addr, obs.CurrentBuild())

	select {
	case err := <-errc:
		log.Printf("serve: %v", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: close admission, let the in-flight run complete
	// and flush its exports, then shut the listener down. With
	// -drainoutage the drain doubles as a fault drill — the in-flight
	// run finishes through the degradation machinery, and the outcome
	// counters are logged for the drill record.
	if *drainOutage > 0 {
		log.Printf("signal received, draining (injecting %.0fs lane outage)", *drainOutage)
	} else {
		log.Printf("signal received, draining")
	}
	srv.Drain()
	if *drainOutage > 0 {
		snap := serve.Live.Snapshot()
		log.Printf("drain drill: %d failed, %d degraded, %d failovers across process lifetime",
			snap.Failed, snap.Degraded, snap.FailedOver)
	}
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
		return 1
	}
	log.Printf("drained cleanly")
	return 0
}

// newHTTPServer bounds the two waits a client controls without sending
// a request: the header read, so a slow or stalled client cannot hold a
// connection open before its request is parsed, and the idle time
// between keep-alive requests, so abandoned connections are closed.
// ReadTimeout and WriteTimeout stay 0: POST bodies are capped in size by
// the handler, and each route but the streaming /trace sets its own
// write deadline.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
