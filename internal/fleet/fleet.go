package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activepages/internal/httpmw"
	"activepages/internal/lru"
	"activepages/internal/obs"
	"activepages/internal/serve"
)

// Config carries the router's knobs. The zero value of every field selects
// a sensible default (see withDefaults).
type Config struct {
	// Backends lists the shard base URLs, e.g. "http://127.0.0.1:9101".
	// Order does not matter: ring placement depends only on the URLs.
	Backends []string
	// HealthInterval is how often each backend's /healthz is probed.
	HealthInterval time.Duration
	// Logger receives structured routing logs; nil discards them
	// unformatted (httpmw.DiscardLogger).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = httpmw.DiscardLogger()
	}
	return c
}

// backendState is one shard as the router sees it: reachable or not, the
// run-id prefix it stamps on its runs (learned from /healthz and from the
// run ids its submit answers carry), which routes GETs by id back to the
// shard that owns the run, plus the health report (whose load fields
// /api/v1/fleet surfaces) and timestamp of the last probe.
type backendState struct {
	healthy   bool
	instance  string
	load      serve.Health
	lastProbe time.Time
}

// Router is the stateless fleet front: it consistent-hashes each
// submission's canonical spec key onto the backend ring, retries the next
// replica in ring order when the owner is down or shedding, and proxies
// reads to the shard named by the run id's instance prefix. It keeps no
// run state — every byte a client sees comes from a shard — so routers
// scale horizontally and restart without losing anything.
type Router struct {
	cfg  Config
	log  *slog.Logger
	ring *ring
	// client issues all proxied requests, and prober the health probes
	// and the router's own reads of a shard (readShard). Those get their
	// own client because the proxy client's timeout is sized for long
	// runs — a hung shard must fail a probe or a scrape in seconds, not
	// minutes — and because building a client per probe (the old behavior)
	// leaked a fresh transport's connection pool every sweep.
	client, prober *http.Client

	mu    sync.Mutex
	state map[string]*backendState

	live        *obs.Registry
	requests    atomic.Uint64 // submissions accepted for routing
	retries     atomic.Uint64 // failovers to a later replica in ring order
	shed        atomic.Uint64 // submissions that exhausted every replica
	cacheHits   atomic.Uint64 // backend answered from its result cache
	cacheMisses atomic.Uint64 // backend queued a cold execution
	cacheDedup  atomic.Uint64 // backend attached the submission to an in-flight run
	proxyErrors atomic.Uint64 // proxied reads and readShard reads that failed

	// mw is the shared HTTP middleware layer (per-route histograms under
	// "router.http.*", access logs, request-id stamping); traces keeps each
	// routed submission's wall spans for splicing into the shard's trace.
	mw     *httpmw.Instrument
	traces *lru.Cache[string, *obs.WallTracer]

	mux http.Handler
}

// NewRouter builds a router over the given backends. Health state starts
// pessimistic (all unknown backends are unhealthy) until the first probe;
// call ProbeHealth or Start before serving.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:  cfg,
		log:  cfg.Logger,
		ring: newRing(cfg.Backends),
		// The default transport keeps only 2 idle connections per host;
		// under a concurrent cache-hit load every proxied request would
		// then pay a fresh TCP dial to the shard, capping throughput far
		// below what the shards serve. A deep idle pool keeps the hot path
		// dial-free.
		client: &http.Client{
			Timeout: 15 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		prober: &http.Client{Timeout: 2 * time.Second},
		state:  make(map[string]*backendState, len(cfg.Backends)),
		live:   obs.New(),
		traces: lru.New[string](routerTraceRuns, func(*obs.WallTracer) uint64 { return 1 }),
	}
	for _, b := range cfg.Backends {
		rt.state[b] = &backendState{}
	}

	rt.live.Counter("router.requests", rt.requests.Load)
	rt.live.Counter("router.retries", rt.retries.Load)
	rt.live.Counter("router.shed", rt.shed.Load)
	rt.live.Counter("router.cache_hits", rt.cacheHits.Load)
	rt.live.Counter("router.cache_misses", rt.cacheMisses.Load)
	rt.live.Counter("router.cache_dedup", rt.cacheDedup.Load)
	rt.live.Counter("router.proxy_errors", rt.proxyErrors.Load)
	rt.live.Gauge("router.backends_total", func() int64 { return int64(len(cfg.Backends)) })
	rt.live.Gauge("router.backends_healthy", func() int64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		n := int64(0)
		for _, st := range rt.state {
			if st.healthy {
				n++
			}
		}
		return n
	})

	rt.mw = httpmw.NewInstrument(cfg.Logger, rt.live, "router.")
	mux := http.NewServeMux()
	rt.mw.Handle(mux, "GET /healthz", rt.handleHealthz)
	rt.mw.Handle(mux, "GET /metrics", rt.handleMetrics)
	rt.mw.Handle(mux, "GET /api/v1/metricsz", rt.handleMetricsz)
	rt.mw.Handle(mux, "GET /api/v1/fleet", rt.handleFleet)
	rt.mw.Handle(mux, "POST /api/v1/runs", rt.handleSubmit)
	rt.mw.Handle(mux, "GET /api/v1/runs", rt.handleList)
	rt.mw.Handle(mux, "GET /api/v1/runs/{id}", rt.handleProxyGet)
	// The literal trace route wins over the artifact wildcard (most-specific
	// pattern), so trace reads get the router-span splice while every other
	// artifact proxies through untouched.
	rt.mw.Handle(mux, "GET /api/v1/runs/{id}/trace", rt.handleRunTrace)
	rt.mw.Handle(mux, "GET /api/v1/runs/{id}/{artifact...}", rt.handleProxyGet)
	rt.mux = rt.mw.Recoverer(mux)
	return rt
}

// Handler returns the router's HTTP handler (for tests and embedding).
func (rt *Router) Handler() http.Handler { return rt.mux }

// ProbeHealth probes every backend's /healthz once, synchronously,
// updating health state and learning instance prefixes. Returns how many
// backends are healthy after the sweep.
func (rt *Router) ProbeHealth() int {
	healthy := 0
	for _, b := range rt.cfg.Backends {
		ok, instance, load := rt.probe(b)
		rt.mu.Lock()
		st := rt.state[b]
		if ok != st.healthy {
			rt.log.Info("backend health changed", "backend", b, "healthy", ok)
		}
		st.healthy = ok
		st.lastProbe = time.Now()
		st.load = load
		if instance != "" {
			st.instance = instance
		}
		rt.mu.Unlock()
		if ok {
			healthy++
		}
	}
	return healthy
}

// probe checks one backend with the dedicated short-timeout probe client
// (the proxy client's timeout is sized for long runs). A draining daemon
// answers /healthz with 503 but still names its instance, so the prefix
// table stays complete even while a shard is leaving the fleet; the load
// fields of the extended health report ride along for /api/v1/fleet.
func (rt *Router) probe(backend string) (healthy bool, instance string, load serve.Health) {
	resp, err := rt.prober.Get(backend + "/healthz")
	if err != nil {
		return false, "", serve.Health{}
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&load); err != nil {
		return false, "", serve.Health{}
	}
	return resp.StatusCode == http.StatusOK && load.Status == "ok", load.Instance, load
}

// Start launches the periodic health prober (after one synchronous sweep,
// so routing decisions are informed from the first request) and returns.
// The prober stops when stop is closed.
func (rt *Router) Start(stop <-chan struct{}) {
	rt.ProbeHealth()
	go func() {
		t := time.NewTicker(rt.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rt.ProbeHealth()
			case <-stop:
				return
			}
		}
	}()
}

// Serve serves on ln until stop is closed. The caller binds ln, so it can
// hold the address before it starts anything else that binds ports
// (aprouted binds -addr before spawning its shards).
func (rt *Router) Serve(ln net.Listener, stop <-chan struct{}) error {
	rt.Start(stop)
	srv := &http.Server{Handler: rt.mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	rt.log.Info("aprouted listening", "addr", ln.Addr().String(), "backends", len(rt.cfg.Backends))
	select {
	case err := <-errc:
		return err
	case <-stop:
		return srv.Close()
	}
}

// healthyFirst partitions a ring preference order so healthy backends keep
// their relative order ahead of unhealthy ones. Unhealthy backends stay in
// the list as a last resort: the prober's view can be stale in both
// directions, and a submission should only shed when the whole fleet
// actually refuses it.
func (rt *Router) healthyFirst(order []string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(order))
	sort.SliceStable(order, func(i, j int) bool {
		return rt.state[order[i]].healthy && !rt.state[order[j]].healthy
	})
	return append(out, order...)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	healthy := 0
	for _, st := range rt.state {
		if st.healthy {
			healthy++
		}
	}
	rt.mu.Unlock()
	code := http.StatusOK
	status := "ok"
	if healthy == 0 {
		code = http.StatusServiceUnavailable
		status = "no healthy backends"
	}
	rt.mw.WriteJSON(w, code, map[string]any{
		"status": status, "backends_healthy": healthy, "backends_total": len(rt.cfg.Backends),
	})
}

// handleSubmit routes one submission: canonicalize the spec, walk the
// ring's preference order (healthy shards first), and relay the first
// conclusive answer. A refused attempt — transport error, or 503 from a
// draining or queue-full shard — fails over to the next replica and
// counts one retry; only exhausting the whole list sheds the submission.
//
// The whole routing decision is wall-traced: ring lookup and relay land
// on the router lifecycle track, each replica attempt on the attempts
// track with a retry instant between failovers. An accepted submission's
// tracer is retained keyed by the run id the shard allocated, so
// GET /api/v1/runs/{id}/trace splices the routing hop into the shard's
// own lifecycle trace.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.mw.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	// Validate before hashing: a body every shard would refuse gets its 400
	// here instead of a ring walk and a proxy hop.
	req, err := serve.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		rt.mw.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.requests.Add(1)
	rid := httpmw.RequestID(r.Context())
	submitStart := time.Now()
	tr := obs.NewWallTracer(submitStart)
	tr.SetProcess(routerTracePID, "aprouted (router)")

	spec := serve.SpecKey(req)
	order := rt.healthyFirst(rt.ring.order(spec))
	tr.Span(obs.TIDRouterLifecycle, "router", "ring_lookup", submitStart, time.Since(submitStart))
	for attempt, backend := range order {
		if attempt > 0 {
			rt.retries.Add(1)
			tr.Instant(obs.TIDRouterAttempts, "router", "retry", time.Now())
		}
		attemptStart := time.Now()
		preq, err := http.NewRequest(http.MethodPost, backend+"/api/v1/runs", bytes.NewReader(body))
		if err != nil {
			rt.mw.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		preq.Header.Set("Content-Type", "application/json")
		preq.Header.Set(httpmw.RequestIDHeader, rid)
		resp, err := rt.client.Do(preq)
		if err != nil {
			tr.Span(obs.TIDRouterAttempts, "router", "attempt "+backend+" (unreachable)",
				attemptStart, time.Since(attemptStart))
			rt.log.Warn("submit attempt failed", "backend", backend, "request_id", rid, "err", err.Error())
			rt.markUnhealthy(backend)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or queue-full: this shard refuses, the next may not.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			tr.Span(obs.TIDRouterAttempts, "router", "attempt "+backend+" (refused)",
				attemptStart, time.Since(attemptStart))
			rt.log.Info("submit refused, failing over", "backend", backend, "request_id", rid, "spec", spec[:12])
			continue
		}
		tr.Span(obs.TIDRouterAttempts, "router", "attempt "+backend, attemptStart, time.Since(attemptStart))
		switch resp.Header.Get(serve.CacheResultHeader) {
		case "hit":
			rt.cacheHits.Add(1)
		case "miss":
			rt.cacheMisses.Add(1)
		case "dedup":
			rt.cacheDedup.Add(1)
		}
		relayStart := time.Now()
		id := runIDFromLocation(resp.Header.Get("Location"))
		relay(w, resp)
		tr.Span(obs.TIDRouterLifecycle, "router", "relay", relayStart, time.Since(relayStart))
		tr.Span(obs.TIDRouterLifecycle, "router", "submit", submitStart, time.Since(submitStart))
		if id != "" {
			rt.learnInstance(backend, id)
			// First-writer-wins: a deduped resubmission must not replace the
			// executing run's routing spans with its own.
			rt.traces.Add(id, tr)
		}
		return
	}
	rt.shed.Add(1)
	rt.mw.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("no backend accepted the run (%d tried)", len(order)))
}

// runIDFromLocation extracts the run id a shard allocated from its submit
// response's Location header ("/api/v1/runs/b0-r000001" -> "b0-r000001").
func runIDFromLocation(loc string) string {
	const prefix = "/api/v1/runs/"
	if !strings.HasPrefix(loc, prefix) {
		return ""
	}
	id := strings.TrimPrefix(loc, prefix)
	if strings.ContainsRune(id, '/') {
		return ""
	}
	return id
}

// handleList merges every healthy shard's run listing into one fleet-wide
// view: runs concatenated and sorted by id (instance prefix first, so each
// shard's runs group together), per-state counts summed.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	merged := serve.Listing{Counts: make(map[serve.State]int), Shards: make(map[string]int)}
	listings, errs := readShards[serve.Listing](rt, r, "/api/v1/runs", listingLimit)
	for i, backend := range rt.cfg.Backends {
		if errs[i] != nil {
			continue
		}
		one := listings[i]
		merged.Runs = append(merged.Runs, one.Runs...)
		for st, n := range one.Counts {
			merged.Counts[st] += n
		}
		merged.Shards[backend] = len(one.Runs)
	}
	sort.Slice(merged.Runs, func(i, j int) bool { return merged.Runs[i].ID < merged.Runs[j].ID })
	rt.mw.WriteJSON(w, http.StatusOK, merged)
}

// handleProxyGet routes a read to the shard that owns the run (see
// backendFor).
func (rt *Router) handleProxyGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if backend := rt.backendFor(id); backend != "" {
		rt.proxy(w, r, backend)
		return
	}
	rt.writeNoOwner(w, id)
}

// instancePrefix extracts the shard instance from a fleet run id:
// "b1-r000042" -> "b1"; a bare "r000042" (single-daemon format) has none.
func instancePrefix(id string) string {
	if i := strings.LastIndex(id, "-"); i > 0 {
		return id[:i]
	}
	return ""
}

// backendFor names the shard that owns run id: the one whose instance
// prefix the id carries, or the only backend of a one-shard router; ""
// when no shard does. Shards without an instance id number their runs
// alike, so with several backends an id without a known prefix cannot be
// routed: asking every shard would serve whichever one's run of that
// number answered first.
func (rt *Router) backendFor(id string) string {
	if len(rt.cfg.Backends) == 1 {
		return rt.cfg.Backends[0]
	}
	instance := instancePrefix(id)
	if instance == "" {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, b := range rt.cfg.Backends {
		if rt.state[b].instance == instance {
			return b
		}
	}
	return ""
}

// writeNoOwner answers a read of a run id no shard owns.
func (rt *Router) writeNoOwner(w http.ResponseWriter, id string) {
	rt.mw.WriteError(w, http.StatusNotFound, fmt.Sprintf("no shard owns run %q (fleet shards need -instance)", id))
}

// learnInstance records the instance prefix of a run id backend just
// allocated, so reads route before the first health probe names it.
func (rt *Router) learnInstance(backend, id string) {
	if instance := instancePrefix(id); instance != "" {
		rt.mu.Lock()
		rt.state[backend].instance = instance
		rt.mu.Unlock()
	}
}

func (rt *Router) markUnhealthy(backend string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if st, ok := rt.state[backend]; ok {
		st.healthy = false
	}
}

// fetch re-issues the inbound GET against one backend under its context,
// forwarding the conditional-request header so ETag revalidation (304)
// flows end to end and the request id so the shard's access log joins the
// router's. A transport failure counts in router.proxy_errors, marks the
// shard unhealthy until the next probe and answers 502 — unless the
// inbound request's own cancellation caused it: a client that went away
// says nothing about the shard. ok is false when there is no response to
// relay.
func (rt *Router) fetch(w http.ResponseWriter, r *http.Request, backend string) (resp *http.Response, ok bool) {
	req, err := shardRequest(r, backend, r.URL.Path)
	if err == nil {
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err = rt.client.Do(req)
	}
	if err == nil {
		return resp, true
	}
	if r.Context().Err() == nil {
		rt.proxyErrors.Add(1)
		rt.markUnhealthy(backend)
		rt.mw.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %s unreachable: %v", backend, err))
	}
	return nil, false
}

// shardRequest builds a GET of path on backend under the inbound
// request's context, carrying its request id.
func shardRequest(r *http.Request, backend, path string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, backend+path, nil)
	if err != nil {
		return nil, err
	}
	if rid := httpmw.RequestID(r.Context()); rid != "" {
		req.Header.Set(httpmw.RequestIDHeader, rid)
	}
	return req, nil
}

// Caps on the bodies the router reads from a shard for itself
// (readShard).
const (
	listingLimit  = 64 << 20 // GET /api/v1/runs
	metricszLimit = 16 << 20 // GET /api/v1/metricsz
	runViewLimit  = 1 << 20  // GET /api/v1/runs/{id}
)

// readShard is the router's own read of a shard — a listing, a metrics
// scrape, a run view — for the inbound request r: it GETs path from
// backend through the prober's short-timeout client and decodes the 200
// answer, read up to limit bytes, into v, the shard's own wire type
// (decodeShard). A shard that accepts connections and never answers costs
// one probe timeout, not the proxy client's. A failure counts in
// router.proxy_errors, unless the inbound request's cancellation caused
// it.
func (rt *Router) readShard(r *http.Request, backend, path string, limit int64, v any) (err error) {
	defer func() {
		if err != nil && r.Context().Err() == nil {
			rt.proxyErrors.Add(1)
		}
	}()
	req, err := shardRequest(r, backend, path)
	if err != nil {
		return err
	}
	resp, err := rt.prober.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: HTTP %d", backend, path, resp.StatusCode)
	}
	return decodeShard(resp.Body, limit, v)
}

// readShards reads path from every backend at once (readShard) and waits
// for all of them, so shards that never answer cost one probe timeout
// together, not one each. vs[i] holds backend i's answer when errs[i] is
// nil; callers merge in backend order.
func readShards[T any](rt *Router, r *http.Request, path string, limit int64) (vs []T, errs []error) {
	vs = make([]T, len(rt.cfg.Backends))
	errs = make([]error, len(rt.cfg.Backends))
	var wg sync.WaitGroup
	for i, backend := range rt.cfg.Backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rt.readShard(r, backend, path, limit, &vs[i])
		}()
	}
	wg.Wait()
	return vs, errs
}

// decodeShard decodes a body the router reads from a shard for itself,
// read up to limit bytes. The body comes from another process, so
// FuzzDecodeMetricsz feeds it arbitrary bytes.
func decodeShard(body io.Reader, limit int64, v any) error {
	return json.NewDecoder(io.LimitReader(body, limit)).Decode(v)
}

func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, backend string) {
	if resp, ok := rt.fetch(w, r, backend); ok {
		relay(w, resp)
	}
}

// ridHeaderKey is httpmw.RequestIDHeader in the canonical form http.Header
// iteration yields, for the relay skip below.
var ridHeaderKey = http.CanonicalHeaderKey(httpmw.RequestIDHeader)

// relayBufs pools relay's 32 KiB copy buffers. io.Copy would allocate a
// fresh one per reply: neither the middleware's StatusWriter nor the
// transport's body implements ReaderFrom or WriterTo. (httputil.
// ReverseProxy's BufferPool is the same device.)
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// relay copies a backend response — status, headers, body — to the client
// and closes it. The shard's request-id echo is skipped: the router's own
// middleware already stamped the same id on the response, and Add would
// duplicate the header.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if k == ridHeaderKey {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[]byte)
	io.CopyBuffer(w, resp.Body, *buf)
	relayBufs.Put(buf)
}
