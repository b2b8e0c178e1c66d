// Command aprouted fronts a fleet of apserved shards: it consistent-hashes
// each submission's canonical spec onto a backend ring, so every repeat of
// a spec lands on the shard whose result cache already holds it, and fails
// over to the next replica in ring order when a shard is down or shedding.
//
// Usage:
//
//	aprouted -addr 127.0.0.1:8090 -backends http://127.0.0.1:9101,http://127.0.0.1:9102
//	aprouted -addr 127.0.0.1:8090 -spawn 3 -workers 1
//
// -backends fronts externally-started apserved processes; -spawn N starts
// N shards in-process on ephemeral ports (instance ids b0..bN-1), which is
// the one-command fleet for local experiments. The two compose: spawned
// shards are appended to the -backends list.
//
// API (client-compatible with a single apserved):
//
//	GET  /healthz                   503 when no backend is healthy
//	GET  /metrics                   ap_router_* counters plus the federated
//	                                fleet view: every shard's snapshot merged
//	                                under ap_fleet_* (counters sum, gauges
//	                                max) and per-shard slices under
//	                                ap_shard_<instance>_*
//	GET  /api/v1/metricsz           the same federation as JSON: router,
//	                                fleet merge, and per-shard snapshots
//	                                from one scrape pass
//	GET  /api/v1/fleet              live fleet status: per-shard health,
//	                                queue/worker saturation, cache hit rate,
//	                                probe age (apload -fleet renders it)
//	POST /api/v1/runs               routed by spec hash, retried on failover
//	GET  /api/v1/runs               fleet-wide listing merged from all shards
//	GET  /api/v1/runs/{id}/trace    the shard's lifecycle trace with this
//	                                router's routing spans spliced in as an
//	                                "aprouted (router)" process
//	GET  /api/v1/runs/{id}[/...]    proxied to the shard owning the id prefix
//
// Every inbound request is stamped with an X-AP-Request-Id (generated
// unless the client provides one) that the router forwards to the shard,
// so one id joins the router's and shard's access logs, the run record,
// and the routing trace for a single client interaction.
//
// The router keeps no run state — all of it lives in the shards — so any
// number of router replicas over the same backend list route identically;
// only the routing traces of recently routed runs are retained in memory
// for the trace splice.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"activepages/internal/fleet"
	"activepages/internal/serve"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "aprouted:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8090", "router listen address")
		backends = flag.String("backends", "", "comma-separated apserved base URLs")
		spawn    = flag.Int("spawn", 0, "apserved shards to start in-process on ephemeral ports")
		interval = flag.Duration("healthinterval", 2*time.Second, "backend health-probe period")
		workers  = flag.Int("workers", 2, "concurrent runs per spawned shard")
		queue    = flag.Int("queue", 16, "queue depth per spawned shard")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "simulation worker-pool width per run in spawned shards")
		cacheMB  = flag.Int("cachemb", 0, "result cache budget per spawned shard in MiB (0 = default)")
		logLevel = flag.String("loglevel", "info", "log level: debug, info, warn, error")
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

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimSuffix(b, "/"))
		}
	}

	// Bind -addr before spawning: each shard binds an ephemeral port, which
	// could otherwise take -addr when it lies in the ephemeral range.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	var locals []*fleet.LocalBackend
	for i := 0; i < *spawn; i++ {
		lb, err := fleet.StartLocal(serve.Config{
			Workers:     *workers,
			QueueDepth:  *queue,
			JobsPerRun:  *jobs,
			InstanceID:  fmt.Sprintf("b%d", i),
			CacheBudget: uint64(*cacheMB) << 20,
			Logger:      logger.With("shard", fmt.Sprintf("b%d", i)),
		})
		if err != nil {
			return err
		}
		logger.Info("shard spawned", "instance", fmt.Sprintf("b%d", i), "url", lb.URL())
		locals = append(locals, lb)
		urls = append(urls, lb.URL())
	}
	if len(urls) == 0 {
		return fmt.Errorf("no backends: pass -backends and/or -spawn")
	}

	rt := fleet.NewRouter(fleet.Config{
		Backends:       urls,
		HealthInterval: *interval,
		Logger:         logger,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = rt.Serve(ln, ctx.Done())
	grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, lb := range locals {
		if serr := lb.Stop(grace); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
