// Command cppserved is the simulation observatory: a long-running HTTP
// service that launches simulator runs as jobs and serves their telemetry
// while they execute.
//
// Usage:
//
//	cppserved -addr :8077
//
// then:
//
//	curl -d '{"workload":"mst","config":"CPP","functional":true}' localhost:8077/runs
//	curl localhost:8077/runs/1
//	curl -N localhost:8077/runs/1/stream
//	curl localhost:8077/metrics
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, no new
// runs are accepted, queued jobs are canceled, and running jobs drain
// cooperatively (up to two minutes; stragglers are force-canceled through
// their run contexts near the end of the window).
//
// Supervision knobs: -max-runs bounds concurrent simulations and
// -max-queue the admission wait queue (beyond it POST /runs gets 429).
// The server keeps the last 256 terminal runs and the last 4,096 interval
// snapshots of each run. Per-run deadlines come from the RunSpec
// "timeout_sec" field.
//
// -ledger enables the durable run ledger: every terminal run is appended
// (fsync'd) to the given file, and on boot the file is replayed —
// tolerating a torn tail from a crash mid-append — to seed the /fleet
// rollup, so fleet history survives restarts. Without -ledger the rollup
// is in-memory only. The listener comes up before the replay and /readyz
// answers 503 until it completes, so health checks see the boot phase
// without the process looking dead.
//
// -memo N enables spec-hash memoization: up to N terminal results are
// kept in an LRU store and identical re-submitted specs are answered
// instantly from it (POST /runs?nocache=1 bypasses it per-run). Off by
// default — every run executes unless asked otherwise.
//
// POST /sweeps expands a cross-product into child runs that go through
// the same admission control, at most -max-runs at once, and
// GET /sweeps/{id}/table serves their deterministic TSV result table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cppcache/internal/ledger"
	"cppcache/internal/serve"
)

// drainTimeout is how long shutdown waits for running jobs.
const drainTimeout = 2 * time.Minute

func main() {
	var (
		addr        = flag.String("addr", "localhost:8077", "listen address (use :0 for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		maxRuns     = flag.Int("max-runs", serve.DefaultMaxRunning, "max concurrently executing simulations")
		maxQueue    = flag.Int("max-queue", serve.DefaultMaxQueue, "max queued runs before POST /runs gets 429")
		ledgerPath  = flag.String("ledger", "", "append-only run ledger file (replayed on boot; empty disables persistence)")
		memoEntries = flag.Int("memo", 0, "spec-hash memo store size (0 disables memoization)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cppserved: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var ledgerWriter *ledger.Writer
	if *ledgerPath != "" {
		var err error
		ledgerWriter, err = ledger.OpenWriter(*ledgerPath)
		if err != nil {
			log.Error("ledger open", "path", *ledgerPath, "err", err)
			os.Exit(1)
		}
		defer ledgerWriter.Close()
	}

	reg := serve.NewRegistryWith(serve.Config{
		MaxRunning:  *maxRuns,
		MaxQueue:    *maxQueue,
		Ledger:      ledgerWriter,
		MemoEntries: *memoEntries,
	}, log)
	if *ledgerPath != "" {
		// The listener comes up before the boot replay; /readyz answers 503
		// until SeedFleet completes so probes route around the booting
		// process instead of declaring it dead.
		reg.SetReady(false)
	}
	srv := &http.Server{
		Handler: serve.NewServer(reg, log),
		// Slow-loris hardening: bound header and body read times and idle
		// keep-alives. No WriteTimeout — SSE responses are long-lived by
		// design; the stream handler enforces its own per-write deadlines.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	log.Info("listening", "addr", bound, "url", "http://"+bound)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Error("write addr-file", "err", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Boot replay, after the listener is already answering: /readyz says
	// 503 booting. The replay tolerates a torn tail; a run racing it to
	// completion is vanishingly unlikely (replay is milliseconds,
	// simulations are not) and at worst double-counts that one record in
	// the in-memory rollup until restart.
	if *ledgerPath != "" {
		recs, stats, err := ledger.Replay(*ledgerPath)
		if err != nil {
			log.Error("ledger replay", "path", *ledgerPath, "err", err)
			os.Exit(1)
		}
		if stats.Skipped > 0 {
			log.Warn("ledger replay skipped damaged records", "path", *ledgerPath,
				"skipped", stats.Skipped, "kept", len(recs))
		}
		reg.SeedFleet(recs)
		reg.SetReady(true)
		log.Info("ledger replayed; ready", "path", *ledgerPath, "replayed_records", len(recs))
	}

	select {
	case <-ctx.Done():
		log.Info("shutting down", "drain_timeout", drainTimeout)
	case err := <-errc:
		log.Error("serve", "err", err)
		os.Exit(1)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	if !reg.Drain(drainTimeout) {
		log.Warn("drain timed out; exiting with jobs still running")
		os.Exit(1)
	}
	log.Info("drained; bye")
}
