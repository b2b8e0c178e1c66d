// Command apserved is the Active Pages run-registry daemon: a long-running
// HTTP service that executes apbench experiments on demand and exposes
// live metrics while they run.
//
// Usage:
//
//	apserved -addr 127.0.0.1:8080 -workers 2 -queue 16
//
// API:
//
//	GET  /healthz                   liveness (503 while draining) plus queue
//	                                depth and busy-worker counts, so a fleet
//	                                router's probe doubles as a load report
//	GET  /metrics                   Prometheus text exposition: live service
//	                                metrics, the aggregate of every completed
//	                                run under run_*, and Go process metrics
//	GET  /api/v1/metricsz           the raw metrics snapshot as JSON, for
//	                                exact-merge federation by aprouted
//	POST /api/v1/runs               submit {"experiment":"array","quick":true};
//	                                202 + run JSON, 503 when the queue is full
//	GET  /api/v1/runs               list all runs with per-state counts
//	GET  /api/v1/runs/{id}          one run's lifecycle JSON
//	GET  /api/v1/runs/{id}/output   the run's rendered tables (apbench stdout)
//	GET  /api/v1/runs/{id}/metrics  the run's metrics snapshot JSON
//	GET  /api/v1/runs/{id}/report   the run's bottleneck attribution report
//	GET  /api/v1/runs/{id}/progress live sweep progress, ETA, and event log
//	GET  /api/v1/runs/{id}/trace    the run's wall-clock lifecycle trace as
//	                                Chrome trace_event JSON (open in Perfetto);
//	                                valid mid-run and after completion
//	GET  /debug/pprof/...           Go profiling endpoints (with -pprof)
//
// Completed and failed runs are retained up to -retain entries; beyond the
// cap the oldest terminal runs lose their artifacts (output, metrics,
// trace) but keep a tombstone: the lifecycle record and the final progress
// tally. The newest 16 × -retain tombstones are kept and older runs are
// forgotten (their ids answer 404), so the daemon holds at most
// 17 × -retain finished runs and the registry stays bounded under
// sustained load.
//
// Results are memoized by canonical spec: a submission identical to a
// completed run answers instantly from the content-addressed cache
// (bounded by -cachemb, LRU-evicted), and concurrent identical
// submissions collapse onto one execution. That store is the only reuse
// across runs: each run simulates with its own checkpoint cache, so a
// run's artifacts depend on its spec alone. -instance gives the daemon a
// fleet shard id: run ids become "b0-r000001" so an aprouted front can
// route reads by prefix.
//
// Memory: the result store holds at most -cachemb; finished runs number
// at most 17 × -retain; checkpoints take at most -workers × 512 MiB, and
// only while runs execute; the applications' workload memos grow with
// each distinct problem size run and no flag bounds them.
//
// Logs are JSON (log/slog) on stderr: one access line per request and one
// lifecycle line per run transition. Every request gets an
// X-AP-Request-Id — the inbound header's value when a router forwarded
// one, a fresh id otherwise — echoed on the response, written in the
// access line, and recorded on the run it submitted, so one id joins a
// client interaction across the whole fleet. SIGINT/SIGTERM shut down gracefully:
// the listener closes, in-flight runs finish (bounded by -runtimeout), and
// still-queued runs are marked failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"activepages/internal/serve"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "apserved:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers    = flag.Int("workers", 2, "concurrent experiment runs")
		queue      = flag.Int("queue", 16, "accepted runs that may wait for a worker")
		runTimeout = flag.Duration("runtimeout", 10*time.Minute, "per-run wall-clock budget")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "simulation worker-pool width inside each run")
		retain     = flag.Int("retain", 256, "completed/failed runs kept with artifacts before eviction to a tombstone (16 × this many tombstones kept)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel   = flag.String("loglevel", "info", "log level: debug, info, warn, error")
		instance   = flag.String("instance", "", "fleet instance id prefixed to run ids (e.g. b0)")
		cacheMB    = flag.Int("cachemb", 0, "result cache byte budget in MiB (0 = default 256)")
	)
	flag.Parse()
	if *cacheMB < 0 {
		return fmt.Errorf("-cachemb %d: want a budget >= 0 MiB", *cacheMB)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -loglevel: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	s := serve.New(serve.Config{
		Addr:        *addr,
		Workers:     *workers,
		QueueDepth:  *queue,
		RunTimeout:  *runTimeout,
		JobsPerRun:  *jobs,
		RetainRuns:  *retain,
		EnablePprof: *pprofOn,
		InstanceID:  *instance,
		CacheBudget: uint64(*cacheMB) << 20,
		Logger:      logger,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.ListenAndServe(ctx)
}
