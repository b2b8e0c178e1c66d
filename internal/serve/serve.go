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
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"activepages/internal/httpmw"
	"activepages/internal/lru"
	"activepages/internal/obs"
	"activepages/internal/radram"
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
	if c.CacheBudget == 0 {
		c.CacheBudget = DefaultCacheBudget
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
	queue chan *Run
	agg   *run.Collector
	live  *obs.Registry
	// results is the content-addressed result store (see cache.go): spec
	// key -> a done run's artifacts, charged by (*cachedRun).bytes against
	// CacheBudget. The registry fills it as runs finish.
	results *lru.Cache[string, *cachedRun]

	workers chan struct{} // closed when the worker pool has drained

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
	results := lru.New[string](cfg.CacheBudget, (*cachedRun).bytes)
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		reg:     newRegistry(cfg.RetainRuns, cfg.InstanceID, results),
		queue:   make(chan *Run, cfg.QueueDepth),
		agg:     run.NewCollector(),
		live:    obs.New(),
		results: results,
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
	s.live.Counter("serve.cache_evicted", s.results.Evicted)
	s.live.Gauge("serve.cache_entries", func() int64 { return int64(s.results.Len()) })
	s.live.Gauge("serve.cache_bytes", func() int64 { return int64(s.results.Bytes()) })
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
			for r := range s.queue {
				if s.reg.isClosed() {
					// The daemon is shutting down: whatever is still queued
					// fails, visibly.
					s.finish(r, StateFailed, "daemon shutting down before run started", 0, nil)
					continue
				}
				s.execute(r)
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

// Shutdown drains the worker pool: admission closes (new submissions are
// shed), queued runs are marked failed, and in-flight runs finish (each
// bounded by RunTimeout). It returns when the pool has drained or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.reg.close(s.queue)
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

// finish is the one exit of every run — executed, answered from the
// result store, or failed at shutdown: it counts r as completed or failed
// and makes it terminal in one registry transaction (registry.finish),
// which also freezes its progress tally, stores a done run's result, drops
// the spec's leadership and applies the retention cap; evictions are
// counted in serve.runs_evicted. The terminal transition is logged into
// the run's event log first, so a reader who sees the run terminal sees
// the entry. It returns the run's view.
func (s *Server) finish(r *Run, st State, errMsg string, elapsed time.Duration, res *cachedRun) Run {
	now := time.Now()
	var attrs map[string]string
	if errMsg != "" {
		attrs = map[string]string{"error": errMsg}
	}
	r.trace.Log(now, "run "+string(st), attrs)
	if st == StateDone {
		s.runsCompleted.Add(1)
	} else {
		s.runsFailed.Add(1)
	}
	view, n := s.reg.finish(r, st, errMsg, now, elapsed, res)
	if n > 0 {
		s.runsEvicted.Add(uint64(n))
		s.log.Info("runs evicted", "count", n, "retain", s.cfg.RetainRuns)
	}
	return view
}

// newRunProgress builds the progress tracker one run's runner reports
// into, wired to emit wall-clock spans and event-log entries into the
// run's trace: one span per scheduled sweep point, one benchmark-labeled
// span per measurement carrying its checkpoint outcomes, each named
// "… failed" when it failed or was canceled, and an instant plus log entry
// per experiment the dispatch enters. The callbacks run on the run's
// worker goroutine; the trace is concurrency-safe against handlers
// exporting it mid-run.
func newRunProgress(trace *obs.WallTracer) *run.Progress {
	return &run.Progress{
		OnLabel: func(label string) {
			now := time.Now()
			trace.Instant(obs.TIDWallLifecycle, "serve", "experiment:"+label, now)
			trace.Log(now, "experiment", map[string]string{"name": label})
		},
		OnPoint: func(ev run.PointEvent) {
			trace.SpanArg(obs.TIDWallPoints, "point",
				fmt.Sprintf("point %d/%d", ev.Done, ev.Total)+failedSuffix(ev.Err), ev.Start, ev.Wall, ev.Done)
		},
		OnMeasure: func(ev run.MeasureEvent) {
			name := fmt.Sprintf("%s p=%g", ev.Benchmark, ev.Pages)
			if ev.ConvCheckpoint != "" {
				name += " conv=" + ev.ConvCheckpoint + " ap=" + ev.APCheckpoint
			}
			trace.Span(obs.TIDWallMeasures, "measure", name+failedSuffix(ev.Err), ev.Start, ev.Wall)
		},
	}
}

// failedSuffix is the suffix of a trace span whose point or measure failed
// (canceled ones included).
func failedSuffix(err error) string {
	if err != nil {
		return " failed"
	}
	return ""
}

// execute runs one queued experiment on this worker under a RunTimeout
// deadline, which the run layer checks between machine runs: a run past it
// fails "timed out" once its dispatch returns, so no run outlives its
// worker. The run's wall-clock trace receives the whole lifecycle: the
// queue-wait span closes at pickup (and feeds the serve.queue_wait
// histogram), every sweep point and measurement lands as a span via the
// progress tracker, and execute/artifact-write spans close at completion.
// The run simulates with its own checkpoint cache (Request.dispatch).
func (s *Server) execute(r *Run) {
	now := time.Now()
	trace := r.trace
	prog := newRunProgress(trace)
	s.reg.start(r, now, prog)
	qw := now.Sub(r.Submitted)
	s.queueWait.Observe(qw)
	trace.Span(obs.TIDWallLifecycle, "serve", "queue_wait", r.Submitted, qw)
	trace.Log(now, "worker pickup", map[string]string{"queue_wait": qw.String()})
	s.runsActive.Add(1)
	defer s.runsActive.Add(-1)
	s.log.Info("run started", "id", r.ID, "request", r.Request.String(),
		"queue_wait_ms", qw.Milliseconds())

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RunTimeout)
	defer cancel()
	var buf bytes.Buffer
	metrics, err := r.Request.dispatch(ctx, &buf, s.cfg.JobsPerRun, prog)
	elapsed := time.Since(now)
	s.runNS.Observe(elapsed)
	span := "execute"
	if errors.Is(err, context.DeadlineExceeded) {
		span, err = "execute (timed out)", fmt.Errorf("timed out after %s", s.cfg.RunTimeout)
	}
	trace.Span(obs.TIDWallLifecycle, "serve", span, now, elapsed)
	if err != nil {
		s.finish(r, StateFailed, err.Error(), elapsed, nil)
		s.log.Error("run failed", "id", r.ID, "err", err.Error(), "elapsed_ms", elapsed.Milliseconds())
		return
	}
	res := &cachedRun{buf.Bytes(), metrics.Snapshot(), metrics.Groups()}
	wstart := time.Now()
	s.agg.Add(res.metrics)
	trace.SpanArg(obs.TIDWallLifecycle, "serve", "artifact_write",
		wstart, time.Since(wstart), int64(len(res.output)))
	s.finish(r, StateDone, "", elapsed, res)
	s.log.Info("run done", "id", r.ID, "elapsed_ms", elapsed.Milliseconds(), "output_bytes", len(res.output))
}

// --- handlers ---

// Health is the body of GET /healthz, which a fleet router decodes too:
// besides the status and instance, the load fields let the router's probe
// double as a saturation report without a second request. The fields are
// declared in alphabetical key order: the body's layout is part of the
// API.
type Health struct {
	// Instance is the daemon's run-id prefix, from which a fleet router
	// learns which shard owns a run; empty for a single daemon.
	Instance      string `json:"instance,omitempty"`
	QueueCapacity int    `json:"queue_capacity"`
	QueueDepth    int    `json:"queue_depth"`
	// Status is "ok", or "draining" (with 503) while shutting down.
	Status       string `json:"status"`
	WorkersBusy  int    `json:"workers_busy"`
	WorkersTotal int    `json:"workers_total"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Instance:      s.cfg.InstanceID,
		QueueCapacity: cap(s.queue),
		QueueDepth:    len(s.queue),
		Status:        "ok",
		WorkersBusy:   int(s.runsActive.Load()),
		WorkersTotal:  s.cfg.Workers,
	}
	code := http.StatusOK
	if s.reg.isClosed() {
		h.Status, code = "draining", http.StatusServiceUnavailable
	}
	s.mw.WriteJSON(w, code, h)
}

// MetricsSnapshot returns everything /metrics renders: the live service
// registry, the aggregate of every completed run under the "run."
// prefix, and each backend's slice of that aggregate re-keyed from its
// catalog namespace to its name (so RADram rows surface as ap_radram_*
// and SIMDRAM rows as ap_simdram_* in the exposition). Safe to call while
// runs are in flight.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	snap := s.live.Snapshot()
	agg := s.agg.Snapshot()
	snap.Merge(agg.WithPrefix("run."))
	for _, b := range radram.Backends() {
		ns, sub := b.Namespace+".", obs.Snapshot{}
		for k, v := range agg {
			if rest, ok := strings.CutPrefix(k, ns); ok {
				sub[b.Name()+"."+rest] = v
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
	s.mw.WriteJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// handleSubmit records a submission and answers with its run: a cold
// run queued (X-AP-Cache: miss), the spec's in-flight leader (dedup), or
// a run finished at once from the result store (hit), or it sheds it with
// 503. The registry decides which in one transaction (registry.admit); a
// hit is then recorded by one more (registry.finish), through the same
// exit as an executed run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.mw.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	rid := httpmw.RequestID(r.Context())
	now := time.Now()
	// The run's wall-clock trace starts at submission (epoch zero), so the
	// queue-wait span renders from the origin of the run's timeline.
	trace := obs.NewWallTracer(now)
	trace.Log(now, "submitted", map[string]string{"request": req.String(), "request_id": rid})
	rn := &Run{Request: req, State: StateQueued, RequestID: rid, Submitted: now,
		trace: trace, jobs: s.cfg.JobsPerRun, spec: SpecKey(req)}
	view, res, how := s.reg.admit(rn, s.queue)
	switch how {
	case "closed":
		s.runsRejected.Add(1)
		s.mw.WriteError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return
	case "":
		s.runsRejected.Add(1)
		s.mw.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("run queue full (%d queued)", cap(s.queue)))
		return
	case "dedup":
		s.cacheDedup.Add(1)
		s.log.Info("run deduplicated", "id", view.ID, "request", req.String())
	case "miss":
		s.runsSubmitted.Add(1)
		s.cacheMisses.Add(1)
		if s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.log.Info("run submitted", "id", view.ID, "request", req.String(), "request_id", rid)
		}
	case "hit":
		// Nothing executes: the record is finished already, with a zero
		// queue wait and a near-zero cached execute span, so cached runs
		// are first-class citizens of the §13 tooling, just visibly free.
		// It gets no progress tracker; its view reports the zero tally.
		s.runsSubmitted.Add(1)
		s.cacheHits.Add(1)
		started := time.Now()
		rn.Started, rn.Cached = &started, true
		trace.Span(obs.TIDWallLifecycle, "serve", "queue_wait", now, 0)
		trace.Log(started, "cache hit", map[string]string{"spec": rn.spec})
		elapsed := time.Since(now)
		trace.Span(obs.TIDWallLifecycle, "serve", "execute (cached)", started, elapsed)
		s.runNS.Observe(elapsed)
		view = s.finish(rn, StateDone, "", elapsed, res)
		if s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.log.Info("run served from cache", "id", view.ID,
				"request", req.String(), "request_id", rid, "elapsed_us", elapsed.Microseconds())
		}
	}
	w.Header().Set(CacheResultHeader, how)
	w.Header().Set("Location", "/api/v1/runs/"+view.ID)
	s.mw.WriteJSON(w, http.StatusAccepted, view)
}

// Listing is the body of GET /api/v1/runs: every run the registry holds,
// sorted by id, and how many are in each state. A fleet router merges its
// shards' listings into one and counts each shard's runs in Shards.
type Listing struct {
	Runs   []Run          `json:"runs"`
	Counts map[State]int  `json:"counts"`
	Shards map[string]int `json:"shards,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mw.WriteJSON(w, http.StatusOK, s.reg.list())
}

// lookup fetches the run named by the request path, writing the 404 itself.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (Run, bool) {
	id := r.PathValue("id")
	rn, ok := s.reg.get(id)
	if !ok {
		s.mw.WriteError(w, http.StatusNotFound, fmt.Sprintf("no run %q", id))
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
		s.mw.WriteError(w, http.StatusConflict,
			fmt.Sprintf("run %s is %s, not done", rn.ID, rn.State))
		return rn, false
	}
	if rn.Evicted {
		s.mw.WriteError(w, http.StatusGone,
			fmt.Sprintf("run %s artifacts evicted (retention cap %d)", rn.ID, s.cfg.RetainRuns))
		return rn, false
	}
	return rn, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if rn, ok := s.lookup(w, r); ok {
		s.mw.WriteJSON(w, http.StatusOK, rn)
	}
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookupDone(w, r)
	if !ok {
		return
	}
	writeArtifact(w, r, "text/plain; charset=utf-8", rn.result.output)
}

func (s *Server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookupDone(w, r)
	if !ok {
		return
	}
	j, err := rn.result.metrics.JSON()
	if err != nil {
		s.mw.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeArtifact(w, r, "application/json", append(j, '\n'))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookupDone(w, r)
	if !ok {
		return
	}
	groups := rn.result.groups
	if len(groups) == 0 {
		// Experiments that collect no per-benchmark groups still get a
		// whole-run attribution, mirroring apreport on a single file.
		groups = map[string]obs.Snapshot{rn.ID: rn.result.metrics}
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
	s.mw.WriteJSON(w, http.StatusOK, resp)
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
		s.mw.WriteError(w, http.StatusGone,
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
