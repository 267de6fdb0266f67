// Command jasd is the characterization daemon: the paper's pipeline wrapped
// in a concurrent serving layer. Clients POST run configurations; jasd
// deduplicates identical configs onto one job (one simulation per fidelity,
// byte-identical bodies for every client), executes jobs on a bounded
// worker pool with an explicit wait queue (full queue = 429 + Retry-After),
// streams per-window statistics as NDJSON while runs execute, and serves
// finished reports and figures as JSON or markdown. Observability:
// Prometheus-text /metrics, /debug/pprof, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	jasd [-addr :8077] [-workers 2] [-queue 8] [-retry-after 5s]
//	     [-drain 60s] [-parallel N] [-addrfile FILE]
//	     [-job-timeout 0] [-done-ttl 15m] [-done-cap 256]
//	     [-max-sweep-cells 64] [-store-dir DIR]
//
// With -addr ending in :0 the kernel picks a free port; the resolved
// address is logged and, with -addrfile, written to FILE for scripts.
//
// -store-dir enables the persistent content-addressed artifact store:
// finished runs are written there atomically and reloaded on demand, so a
// restarted daemon (or another replica sharing the directory) serves
// byte-identical reports without re-simulating. Replicas racing the same
// config dedupe through store-level leases — one simulation total.
//
// Retention: finished (or failed/canceled) jobs stay resident — reports,
// figures, and stream replay served — for -done-ttl, bounded to -done-cap
// jobs; older ones are evicted and their IDs answer 410 Gone.
// -job-timeout bounds each run's execution (a JobSpec's timeout_s
// overrides it per job); DELETE /v1/runs/{id} cancels a run once its last
// submitter lets go.
//
// POST /v1/sweeps expands a base config against parameter axes and fans
// the grid's cells across the same worker pool as ordinary jobs; cells
// differing only in detail-only knobs share one request-level simulation.
// -max-sweep-cells caps the expanded grid size per sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/service"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address (host:0 picks a free port)")
	workers := flag.Int("workers", 2, "jobs executing concurrently")
	queue := flag.Int("queue", 8, "jobs allowed to wait beyond those running")
	retryAfter := flag.Duration("retry-after", 5*time.Second, "Retry-After hint on queue-full rejections")
	drain := flag.Duration("drain", 60*time.Second, "graceful-shutdown deadline for in-flight runs")
	parallel := flag.Int("parallel", 0, "max concurrent simulations per job (0 = one per CPU)")
	addrfile := flag.String("addrfile", "", "write the resolved listen address to this file")
	jobTimeout := flag.Duration("job-timeout", 0, "per-run execution deadline (0 = none; timeout_s overrides per job)")
	doneTTL := flag.Duration("done-ttl", 15*time.Minute, "how long terminal jobs stay resident before eviction")
	doneCap := flag.Int("done-cap", 256, "max terminal jobs resident regardless of age")
	maxSweepCells := flag.Int("max-sweep-cells", 64, "max grid cells a single sweep may expand to")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory (empty = in-memory only)")
	flag.Parse()

	logger := log.New(os.Stderr, "jasd: ", log.LstdFlags)

	if *parallel > 0 {
		core.SetParallelism(*parallel)
	}
	if *storeDir != "" {
		st, err := core.OpenStore(*storeDir)
		if err != nil {
			logger.Fatal(err)
		}
		core.SetStore(st)
		logger.Printf("persistent artifact store at %s", *storeDir)
	}

	svc := service.New(service.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		RetryAfter:    *retryAfter,
		JobTimeout:    *jobTimeout,
		DoneTTL:       *doneTTL,
		DoneCap:       *doneCap,
		MaxSweepCells: *maxSweepCells,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on http://%s (workers=%d queue=%d parallelism=%d)",
		ln.Addr(), *workers, *queue, core.Parallelism())
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Fatal(err)
		}
	}

	srv := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("received %s, draining (deadline %s)", sig, *drain)
	case err := <-errCh:
		logger.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job pool first — new submissions are rejected with 503,
	// queued jobs are failed without starting, in-flight runs get the
	// deadline. Clients blocked on wait=1 or a stream receive their bodies
	// as those runs complete; the HTTP shutdown afterwards then finds the
	// connections idle.
	if err := svc.Shutdown(ctx); err != nil {
		srv.Close()
		logger.Printf("exiting with runs still in flight: %v", err)
		os.Exit(1)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("drained cleanly")
}
