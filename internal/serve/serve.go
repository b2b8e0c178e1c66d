// Package serve is the run-registry daemon behind cmd/apserved: a
// long-running HTTP service that accepts experiment submissions, executes
// them on a bounded worker pool built on the run layer, and exposes
// per-run results plus live service metrics while runs are in flight.
//
// The simulator's own observability (package obs) is pull-after-completion:
// each run gets a fresh registry, snapshotted exactly once after the run
// exits. The daemon layers live metrics on top — atomic counters, gauges
// computed on read, and mutex-guarded latency histograms — so a /metrics
// scrape is race-free against the pool's workers, and merges every
// completed run's snapshot into one aggregate that the scrape renders in
// Prometheus text exposition format under the "run." prefix.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"activepages/internal/httpmw"
	"activepages/internal/obs"
	"activepages/internal/report"
	"activepages/internal/run"
)

// Config carries the daemon's knobs. The zero value of every field selects
// a sensible default (see withDefaults).
//
// What the daemon holds in memory, and what bounds it:
//   - the result store: at most CacheBudget bytes of artifacts;
//   - finished runs: at most RetainRuns with artifacts and 16 × RetainRuns
//     tombstones (see RetainRuns);
//   - checkpoints: each executing run owns a checkpoint cache of at most
//     512 MiB (run.DefaultCheckpointBudget), dropped when the run ends, so
//     at most Workers × 512 MiB and only while runs execute;
//   - the applications' workload memos (inputs and reference answers),
//     shared by every run in the process: they grow with each distinct
//     problem size the daemon has run and no knob bounds them.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:8080".
	Addr string
	// Workers is how many runs execute concurrently.
	Workers int
	// QueueDepth bounds how many accepted runs may wait for a worker;
	// submissions beyond it are shed with 503.
	QueueDepth int
	// RunTimeout bounds one run's wall-clock execution; a run that exceeds
	// it is marked failed.
	RunTimeout time.Duration
	// JobsPerRun is the simulation worker-pool width inside each run.
	JobsPerRun int
	// RetainRuns caps how many completed or failed runs keep their
	// artifacts: beyond it the oldest terminal runs are evicted oldest
	// first to a tombstone that keeps only the lifecycle record and the
	// final progress tally, and beyond 16 × RetainRuns tombstones the
	// oldest are forgotten (their ids answer 404). The registry thus holds
	// at most 17 × RetainRuns terminal runs, so it stays bounded under
	// sustained load. Values <= 0 use 256.
	RetainRuns int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// wall-clock profiling of the daemon itself.
	EnablePprof bool
	// InstanceID, when set, prefixes every run id ("b0-r000001") so ids
	// stay globally unique across a sharded fleet and a router can route
	// GETs by id prefix. Empty keeps the historical single-daemon format.
	InstanceID string
	// CacheBudget bounds the result cache's artifact bytes before LRU
	// eviction; 0 selects DefaultCacheBudget.
	CacheBudget uint64
	// Logger receives structured request and lifecycle logs; nil discards
	// them unformatted (httpmw.DiscardLogger).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 10 * time.Minute
	}
	if c.JobsPerRun <= 0 {
		c.JobsPerRun = runtime.NumCPU()
	}
	if c.RetainRuns <= 0 {
		c.RetainRuns = 256
	}
	if c.Logger == nil {
		c.Logger = httpmw.DiscardLogger()
	}
	return c
}

// Server is the daemon: run registry, worker pool, and HTTP surface.
type Server struct {
	cfg Config
	log *slog.Logger

	reg   *registry
	queue chan string
	agg   *run.Collector
	live  *obs.Registry
	// memo is the content-addressed result cache plus the singleflight
	// index of in-flight specs (see cache.go).
	memo *memoCache

	draining atomic.Bool
	workers  chan struct{} // closed when the worker pool has drained

	runsSubmitted atomic.Uint64
	runsRejected  atomic.Uint64
	runsCompleted atomic.Uint64
	runsFailed    atomic.Uint64
	runsEvicted   atomic.Uint64
	runsActive    atomic.Int64
	runNS         obs.LiveHistogram // wall-clock run durations
	queueWait     obs.LiveHistogram // wall-clock submit -> worker pickup

	cacheHits   atomic.Uint64 // submissions completed from the result cache
	cacheMisses atomic.Uint64 // submissions queued for cold execution
	cacheDedup  atomic.Uint64 // submissions attached to an in-flight leader

	// mw is the shared HTTP middleware layer: per-route histograms,
	// request/error/panic counters under "serve.", access logs, and
	// request-id propagation (see internal/httpmw).
	mw *httpmw.Instrument

	mux     *http.ServeMux
	handler http.Handler
}

// New builds a server. Workers do not run until Start or ListenAndServe.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		reg:     newRegistry(cfg.RetainRuns, cfg.InstanceID),
		queue:   make(chan string, cfg.QueueDepth),
		agg:     run.NewCollector(),
		live:    obs.New(),
		memo:    newMemoCache(cfg.CacheBudget),
		workers: make(chan struct{}),
		mux:     http.NewServeMux(),
	}

	// Every live-registry registration reads an atomic or takes the
	// registry lock, so Snapshot is safe while workers and handlers are
	// concurrently updating — the property /metrics depends on.
	s.live.Counter("serve.runs_submitted", s.runsSubmitted.Load)
	s.live.Counter("serve.runs_rejected", s.runsRejected.Load)
	s.live.Counter("serve.runs_completed", s.runsCompleted.Load)
	s.live.Counter("serve.runs_failed", s.runsFailed.Load)
	s.live.Counter("serve.runs_evicted", s.runsEvicted.Load)
	s.live.Gauge("serve.runs_active", s.runsActive.Load)
	s.live.Gauge("serve.queue_depth", func() int64 { return int64(len(s.queue)) })
	s.live.Gauge("serve.queue_capacity", func() int64 { return int64(cap(s.queue)) })
	s.live.Histogram("serve.run_wall", &s.runNS)
	s.live.Histogram("serve.queue_wait", &s.queueWait)
	s.live.Counter("serve.cache_hits", s.cacheHits.Load)
	s.live.Counter("serve.cache_misses", s.cacheMisses.Load)
	s.live.Counter("serve.cache_dedup", s.cacheDedup.Load)
	s.live.Counter("serve.cache_evicted", s.memo.results.Evicted)
	s.live.Gauge("serve.cache_entries", func() int64 { return int64(s.memo.results.Len()) })
	s.live.Gauge("serve.cache_bytes", func() int64 { return int64(s.memo.results.Bytes()) })
	s.mw = httpmw.NewInstrument(s.log, s.live, "serve.")

	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /api/v1/metricsz", s.handleMetricsz)
	s.handle("POST /api/v1/runs", s.handleSubmit)
	s.handle("GET /api/v1/runs", s.handleList)
	s.handle("GET /api/v1/runs/{id}", s.handleGet)
	s.handle("GET /api/v1/runs/{id}/output", s.handleOutput)
	s.handle("GET /api/v1/runs/{id}/metrics", s.handleRunMetrics)
	s.handle("GET /api/v1/runs/{id}/report", s.handleReport)
	s.handle("GET /api/v1/runs/{id}/progress", s.handleProgress)
	s.handle("GET /api/v1/runs/{id}/trace", s.handleTrace)
	if cfg.EnablePprof {
		// The pprof routes bypass the per-route histograms (a profile
		// endpoint streaming for seconds would only distort them) but stay
		// inside the recoverer.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.mw.Recoverer(s.mux)
	return s
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Start launches the worker pool without binding a listener, for callers
// that serve the handler themselves (httptest, embedding).
func (s *Server) Start() {
	done := make(chan struct{}, s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for id := range s.queue {
				if s.draining.Load() {
					// The daemon is shutting down: whatever is still queued
					// is abandoned, visibly.
					s.finish(id, StateFailed, "daemon shutting down before run started", 0)
					continue
				}
				s.execute(id)
			}
		}()
	}
	go func() {
		for i := 0; i < s.cfg.Workers; i++ {
			<-done
		}
		close(s.workers)
	}()
}

// Shutdown drains the worker pool: new submissions are shed, queued runs
// are marked failed, and in-flight runs finish (each bounded by
// RunTimeout). It returns when the pool has drained or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	close(s.queue)
	select {
	case <-s.workers:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: worker pool did not drain: %w", ctx.Err())
	}
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// shuts down gracefully: the listener closes, in-flight HTTP requests get
// a grace period, and the worker pool drains.
func (s *Server) ListenAndServe(ctx context.Context) error {
	s.Start()
	srv := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	s.log.Info("apserved listening",
		"addr", s.cfg.Addr, "workers", s.cfg.Workers,
		"queue_depth", s.cfg.QueueDepth, "run_timeout", s.cfg.RunTimeout.String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("apserved shutting down")
	grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		return err
	}
	if err := s.Shutdown(grace); err != nil {
		return err
	}
	s.log.Info("apserved stopped")
	return nil
}

// finish moves a run to a terminal state under the registry lock, stamps
// the terminal transition into the run's event log, retires the run's
// singleflight registration, and applies the retention cap: terminal runs
// beyond RetainRuns are evicted oldest first, counted in
// serve.runs_evicted.
func (s *Server) finish(id string, st State, errMsg string, elapsed time.Duration) {
	now := time.Now()
	var trace *obs.WallTracer
	var spec string
	s.reg.update(id, func(r *Run) {
		r.State = st
		r.Error = errMsg
		r.Finished = &now
		r.ElapsedMS = elapsed.Milliseconds()
		trace = r.trace
		spec = r.spec
	})
	s.memo.release(spec, id)
	var attrs map[string]string
	if errMsg != "" {
		attrs = map[string]string{"error": errMsg}
	}
	trace.Log(now, "run "+string(st), attrs)
	if n := s.reg.finalize(id); n > 0 {
		s.runsEvicted.Add(uint64(n))
		s.log.Info("runs evicted", "count", n, "retain", s.cfg.RetainRuns)
	}
}

// newRunProgress builds the progress tracker one run's runner reports
// into, wired to emit wall-clock spans and event-log entries into the
// run's trace: one span per scheduled sweep point, one benchmark-labeled
// span per measurement carrying its checkpoint outcomes, and an instant
// plus log entry per experiment the dispatch enters. The callbacks run on
// the run's worker goroutine; the trace is concurrency-safe against
// handlers exporting it mid-run.
func newRunProgress(trace *obs.WallTracer) *run.Progress {
	return &run.Progress{
		OnLabel: func(label string) {
			now := time.Now()
			trace.Instant(obs.TIDWallLifecycle, "serve", "experiment:"+label, now)
			trace.Log(now, "experiment", map[string]string{"name": label})
		},
		OnPoint: func(ev run.PointEvent) {
			trace.SpanArg(obs.TIDWallPoints, "point",
				fmt.Sprintf("point %d/%d", ev.Done, ev.Total), ev.Start, ev.Wall, ev.Done)
		},
		OnMeasure: func(ev run.MeasureEvent) {
			name := fmt.Sprintf("%s p=%g", ev.Benchmark, ev.Pages)
			if ev.ConvCheckpoint != "" {
				name += " conv=" + ev.ConvCheckpoint + " ap=" + ev.APCheckpoint
			}
			trace.Span(obs.TIDWallMeasures, "measure", name, ev.Start, ev.Wall)
		},
	}
}

// execute runs one queued experiment on this worker, bounded by
// RunTimeout. The run's wall-clock trace receives the whole lifecycle:
// the queue-wait span closes at pickup (and feeds the serve.queue_wait
// histogram), every sweep point and measurement lands as a span via the
// progress tracker, and execute/artifact-write spans close at completion.
// The run simulates with its own checkpoint cache (Request.dispatch), so
// the shard keeps no machine state once it ends.
func (s *Server) execute(id string) {
	var req Request
	var trace *obs.WallTracer
	var prog *run.Progress
	var spec string
	now := time.Now()
	var queued time.Time
	s.reg.update(id, func(r *Run) {
		req = r.Request
		r.State = StateRunning
		r.Started = &now
		queued = r.Submitted
		trace = r.trace
		prog = r.progress
		spec = r.spec
	})
	qw := now.Sub(queued)
	s.queueWait.Observe(qw)
	trace.Span(obs.TIDWallLifecycle, "serve", "queue_wait", queued, qw)
	trace.Log(now, "worker pickup", map[string]string{"queue_wait": qw.String()})
	s.runsActive.Add(1)
	defer s.runsActive.Add(-1)
	s.log.Info("run started", "id", id, "request", req.String(),
		"queue_wait_ms", qw.Milliseconds())

	type result struct {
		out    []byte
		snap   obs.Snapshot
		groups map[string]obs.Snapshot
		err    error
	}
	done := make(chan result, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		var buf bytes.Buffer
		metrics, err := req.dispatch(ctx, &buf, s.cfg.JobsPerRun, prog)
		done <- result{buf.Bytes(), metrics.Snapshot(), metrics.Groups(), err}
	}()

	timer := time.NewTimer(s.cfg.RunTimeout)
	defer timer.Stop()
	select {
	case res := <-done:
		elapsed := time.Since(now)
		s.runNS.Observe(elapsed)
		trace.Span(obs.TIDWallLifecycle, "serve", "execute", now, elapsed)
		if res.err != nil {
			s.runsFailed.Add(1)
			s.finish(id, StateFailed, res.err.Error(), elapsed)
			s.log.Error("run failed", "id", id, "err", res.err.Error(), "elapsed_ms", elapsed.Milliseconds())
			return
		}
		s.agg.Add(res.snap)
		wstart := time.Now()
		s.reg.update(id, func(r *Run) {
			r.output = res.out
			r.metrics = res.snap
			r.groups = res.groups
		})
		// Memoize before finish releases the singleflight registration, so
		// there is no window where a duplicate spec neither attaches to
		// this run nor finds its result cached.
		s.memo.store(spec, res.out, res.snap, res.groups)
		trace.SpanArg(obs.TIDWallLifecycle, "serve", "artifact_write",
			wstart, time.Since(wstart), int64(len(res.out)))
		s.runsCompleted.Add(1)
		s.finish(id, StateDone, "", elapsed)
		s.log.Info("run done", "id", id, "elapsed_ms", elapsed.Milliseconds(), "output_bytes", len(res.out))
	case <-timer.C:
		// Cancel the abandoned dispatch: the run layer checks the context
		// before each experiment point, and the processor model polls it
		// from inside a running point (proc.CPU.Interrupt), so the
		// goroutine unwinds promptly — mid-point — instead of simulating
		// anything to completion. Its result is discarded (done is
		// buffered, so the send never blocks).
		cancel()
		trace.Span(obs.TIDWallLifecycle, "serve", "execute (timed out)", now, s.cfg.RunTimeout)
		s.runsFailed.Add(1)
		s.finish(id, StateFailed,
			fmt.Sprintf("timed out after %s (simulation abandoned)", s.cfg.RunTimeout), s.cfg.RunTimeout)
		s.log.Error("run timed out", "id", id, "timeout", s.cfg.RunTimeout.String())
	}
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The status and instance fields keep their historical shape (string
	// values, same keys); the load fields ride along so a fleet router's
	// probe doubles as a saturation report without a second request.
	body := map[string]any{
		"status":         "ok",
		"queue_depth":    len(s.queue),
		"queue_capacity": cap(s.queue),
		"workers_busy":   s.runsActive.Load(),
		"workers_total":  s.cfg.Workers,
	}
	if s.cfg.InstanceID != "" {
		// The fleet router learns each shard's run-id prefix from here.
		body["instance"] = s.cfg.InstanceID
	}
	if s.draining.Load() {
		body["status"] = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	s.writeJSON(w, http.StatusOK, body)
}

// backendSlices maps each Active-Page backend name to the machine
// prefix its run metrics carry inside a snapshot (apps.Measure tags
// RADram machines with the historical "rad.").
var backendSlices = []struct{ name, prefix string }{
	{"radram", "rad."},
	{"simdram", "simdram."},
}

// MetricsSnapshot returns everything /metrics renders: the live service
// registry, the aggregate of every completed run under the "run."
// prefix, and each backend's slice of that aggregate re-keyed under the
// backend's own name (so RADram rows surface as ap_radram_* and SIMDRAM
// rows as ap_simdram_* in the exposition). Safe to call while runs are
// in flight.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	snap := s.live.Snapshot()
	agg := s.agg.Snapshot()
	snap.Merge(agg.WithPrefix("run."))
	for _, b := range backendSlices {
		sub := obs.Snapshot{}
		for k, v := range agg {
			if strings.HasPrefix(k, b.prefix) {
				sub[b.name+"."+strings.TrimPrefix(k, b.prefix)] = v
			}
		}
		snap.Merge(sub)
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	snap := s.MetricsSnapshot()
	if err := obs.WriteExposition(w, snap); err != nil {
		return
	}
	obs.WriteGoExposition(w)
}

// handleMetricsz serves the raw metrics snapshot as JSON — the federation
// endpoint a fleet router scrapes to merge shard metrics under the exact
// snapshot merge rules (counters sum, _max keys max, histogram buckets
// sum) instead of re-parsing Prometheus text.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	j, err := s.MetricsSnapshot().JSON()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(j, '\n'))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		s.runsRejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return
	}

	// The memo lock brackets the cached / in-flight / cold decision and,
	// for the cold case, the enqueue itself — so a spec is never queued
	// twice by racing duplicates. Both lookups and the enqueue are
	// non-blocking, so the critical section is microseconds.
	spec := SpecKey(req)
	s.memo.mu.Lock()
	if id, ok := s.memo.inflight[spec]; ok {
		if view, vok := s.reg.get(id); vok {
			s.memo.mu.Unlock()
			s.cacheDedup.Add(1)
			s.log.Info("run deduplicated", "id", id, "request", req.String())
			w.Header().Set(CacheResultHeader, "dedup")
			w.Header().Set("Location", "/api/v1/runs/"+id)
			s.writeJSON(w, http.StatusAccepted, view)
			return
		}
	}
	if res, ok := s.memo.results.Get(spec); ok {
		s.memo.mu.Unlock()
		s.completeFromCache(w, r, req, spec, res)
		return
	}
	rid := httpmw.RequestID(r.Context())
	now := time.Now()
	// The run's wall-clock trace starts at submission (epoch zero), so the
	// queue-wait span renders from the origin of the run's timeline.
	trace := obs.NewWallTracer(now)
	// rn is the view the response carries, taken before the enqueue: once
	// queued, a worker may already have marked the run running.
	rn := s.reg.add(req, spec, rid, now, trace, newRunProgress(trace), s.cfg.JobsPerRun)
	trace.SetProcess(1, rn.ID+" (wall clock)")
	trace.Log(now, "submitted", map[string]string{"request": req.String(), "request_id": rid})
	select {
	case s.queue <- rn.ID:
		s.memo.inflight[spec] = rn.ID
		s.memo.mu.Unlock()
	default:
		// Load shed: the queue is full. The slot in the registry is
		// reclaimed so a rejected submission leaves no trace but the
		// counter.
		s.memo.mu.Unlock()
		s.reg.remove(rn.ID)
		s.runsRejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("run queue full (%d queued)", cap(s.queue)))
		return
	}
	s.runsSubmitted.Add(1)
	s.cacheMisses.Add(1)
	if s.log.Enabled(r.Context(), slog.LevelInfo) {
		s.log.Info("run submitted", "id", rn.ID, "request", req.String(), "request_id", rid)
	}
	w.Header().Set(CacheResultHeader, "miss")
	w.Header().Set("Location", "/api/v1/runs/"+rn.ID)
	s.writeJSON(w, http.StatusAccepted, rn)
}

// completeFromCache answers a submission whose spec is already memoized:
// the run record is created, started, and finished inline with the cached
// artifacts attached, so the submit response already carries the terminal
// state. The lifecycle trace gets the same span taxonomy as an executed
// run — a zero queue_wait and a near-zero execute span — so cached runs
// are first-class citizens of the §13 tooling, just visibly free. Nothing
// executes, so the run gets no progress tracker: its view reports the
// zero tally.
func (s *Server) completeFromCache(w http.ResponseWriter, r *http.Request, req Request, spec string, res *cachedRun) {
	rid := httpmw.RequestID(r.Context())
	now := time.Now()
	trace := obs.NewWallTracer(now)
	rn := s.reg.add(req, spec, rid, now, trace, nil, s.cfg.JobsPerRun)
	trace.SetProcess(1, rn.ID+" (wall clock)")
	trace.Log(now, "submitted", map[string]string{"request": req.String(), "request_id": rid})
	s.runsSubmitted.Add(1)
	s.cacheHits.Add(1)
	started := time.Now()
	s.reg.update(rn.ID, func(r *Run) {
		r.State = StateRunning
		r.Started = &started
		r.Cached = true
		r.output = res.output
		r.metrics = res.metrics
		r.groups = res.groups
	})
	elapsed := time.Since(now)
	trace.Span(obs.TIDWallLifecycle, "serve", "queue_wait", now, 0)
	trace.Span(obs.TIDWallLifecycle, "serve", "execute (cached)", started, elapsed)
	trace.Log(started, "cache hit", map[string]string{"spec": spec})
	s.runNS.Observe(elapsed)
	s.runsCompleted.Add(1)
	s.finish(rn.ID, StateDone, "", elapsed)
	if s.log.Enabled(r.Context(), slog.LevelInfo) {
		s.log.Info("run served from cache", "id", rn.ID,
			"request", req.String(), "request_id", rid, "elapsed_us", elapsed.Microseconds())
	}
	w.Header().Set(CacheResultHeader, "hit")
	w.Header().Set("Location", "/api/v1/runs/"+rn.ID)
	view, _ := s.reg.get(rn.ID)
	s.writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type listing struct {
		Runs   []Run         `json:"runs"`
		Counts map[State]int `json:"counts"`
	}
	s.writeJSON(w, http.StatusOK, listing{Runs: s.reg.list(), Counts: s.reg.counts()})
}

// lookup fetches the run named by the request path, writing the 404 itself.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (Run, bool) {
	id := r.PathValue("id")
	rn, ok := s.reg.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("no run %q", id))
	}
	return rn, ok
}

// lookupDone additionally requires the run to have produced output and to
// still hold it: an evicted tombstone answers 410 Gone.
func (s *Server) lookupDone(w http.ResponseWriter, r *http.Request) (Run, bool) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return rn, false
	}
	if rn.State != StateDone {
		s.writeError(w, http.StatusConflict,
			fmt.Sprintf("run %s is %s, not done", rn.ID, rn.State))
		return rn, false
	}
	if rn.Evicted {
		s.writeError(w, http.StatusGone,
			fmt.Sprintf("run %s artifacts evicted (retention cap %d)", rn.ID, s.cfg.RetainRuns))
		return rn, false
	}
	return rn, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if rn, ok := s.lookup(w, r); ok {
		s.writeJSON(w, http.StatusOK, rn)
	}
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookupDone(w, r)
	if !ok {
		return
	}
	writeArtifact(w, r, "text/plain; charset=utf-8", rn.output)
}

func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookupDone(w, r)
	if !ok {
		return
	}
	j, err := rn.metrics.JSON()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeArtifact(w, r, "application/json", append(j, '\n'))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookupDone(w, r)
	if !ok {
		return
	}
	groups := rn.groups
	if len(groups) == 0 {
		// Experiments that collect no per-benchmark groups still get a
		// whole-run attribution, mirroring apreport on a single file.
		groups = map[string]obs.Snapshot{rn.ID: rn.metrics}
	}
	var buf bytes.Buffer
	report.FromGroups(groups).WriteTo(&buf)
	writeArtifact(w, r, "text/plain; charset=utf-8", buf.Bytes())
}

// handleProgress serves a live (or final) view of a run's sweep
// execution: point counts, checkpoint outcomes, an ETA while running, and
// the structured event log of lifecycle transitions. Unlike the artifact
// endpoints it answers for every state — a queued run reports zeros, a
// running run its current counts, a finished run its final tally, an
// evicted tombstone its counters without the event log.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	type progressResponse struct {
		ID        string               `json:"id"`
		State     State                `json:"state"`
		Error     string               `json:"error,omitempty"`
		Submitted time.Time            `json:"submitted"`
		Started   *time.Time           `json:"started,omitempty"`
		Finished  *time.Time           `json:"finished,omitempty"`
		Progress  run.ProgressSnapshot `json:"progress"`
		EtaMS     int64                `json:"eta_ms,omitempty"`
		Evicted   bool                 `json:"evicted,omitempty"`
		Events    []obs.WallEvent      `json:"events,omitempty"`
	}
	resp := progressResponse{
		ID:        rn.ID,
		State:     rn.State,
		Error:     rn.Error,
		Submitted: rn.Submitted,
		Started:   rn.Started,
		Finished:  rn.Finished,
		EtaMS:     rn.EtaMS,
		Evicted:   rn.Evicted,
		Events:    rn.trace.Events(),
	}
	if rn.Progress != nil {
		resp.Progress = *rn.Progress
	}
	s.writeJSON(w, http.StatusOK, resp)
	// Progress responses are poll loops' payload: push them out now so a
	// client behind buffering proxies sees each sample promptly.
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleTrace serves the run's wall-clock lifecycle trace as Perfetto-
// loadable Chrome trace_event JSON — for running runs (a consistent
// prefix of the final trace) and completed ones alike. The export holds
// the tracer's lock, so it never tears against the executing worker.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if rn.Evicted || rn.trace == nil {
		s.writeError(w, http.StatusGone,
			fmt.Sprintf("run %s trace evicted (retention cap %d)", rn.ID, s.cfg.RetainRuns))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rn.trace.WriteChrome(w); err != nil {
		s.log.Debug("trace write failed", "id", rn.ID, "err", err.Error())
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// --- response helpers ---

// writeJSON renders v as the response body. Encode errors after the header
// has gone out cannot change the status anymore, but they are no longer
// silent: a client hanging up mid-body or an unmarshalable value logs at
// debug, so a flaky endpoint is diagnosable from the daemon's logs.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Debug("writeJSON encode failed", "status", code, "err", err.Error())
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, map[string]string{"error": msg})
}
