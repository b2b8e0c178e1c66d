package fleet

// The router's slice of the fleet observability plane: retained routing
// traces spliced into shard lifecycle traces, federated metrics merged
// from shard snapshots under the exact snapshot merge rules, and the
// fleet status surface (/api/v1/fleet).

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"activepages/internal/obs"
	"activepages/internal/serve"
)

const (
	// routerTracePID labels the router's process in spliced trace files, far
	// from the shard pids (1, 2, ...) so Perfetto renders it as its own
	// process band.
	routerTracePID = 100
	// routerTraceRuns bounds how many runs' routing traces the router
	// retains before evicting the least recently used.
	routerTraceRuns = 1024
)

// handleRunTrace serves a run's end-to-end trace: the shard's own
// lifecycle trace with this router's routing spans spliced in as an
// "aprouted (router)" process, wall-epoch-aligned. The shard's trace
// timeline starts at the run's submission on the shard; the router's
// spans started earlier (the routing hop precedes the shard's submit
// stamp), so the splice shifts them by the epoch difference and clamps
// at zero. A run this router never routed — a restarted router, or a
// submission that went straight to the shard — relays the shard trace
// unchanged.
func (rt *Router) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	backend := rt.backendFor(id)
	if backend == "" {
		rt.writeNoOwner(w, id)
		return
	}
	resp, ok := rt.fetch(w, r, backend)
	if !ok {
		return
	}
	if resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	base, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		rt.proxyErrors.Add(1)
		rt.mw.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard trace read failed: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr, ok := rt.traces.Get(id)
	if !ok {
		w.Write(base)
		return
	}
	// Align the router's epoch (submission arrival at the router) with
	// the shard's (the run's Submitted stamp): the shift is negative by
	// the routing hop's head start, and the splice clamps pre-epoch
	// spans to the trace origin.
	var shift time.Duration
	var run serve.Run
	if err := rt.readShard(r, backend, "/api/v1/runs/"+id, runViewLimit, &run); err == nil {
		shift = tr.Epoch().Sub(run.Submitted)
	}
	if err := tr.SpliceChrome(w, base, shift); err != nil {
		rt.log.Debug("trace splice failed", "id", id, "err", err.Error())
	}
}

// shardScrape is one shard's federation reading: the instance label its
// metrics render under and its raw snapshot.
type shardScrape struct {
	instance string
	snap     obs.Snapshot
}

// gatherFleet scrapes every reachable shard's /api/v1/metricsz once, all
// shards at once, for the inbound request r, and returns the exact merge
// (counters and histogram buckets sum, "_max" gauges take the maximum —
// obs.Snapshot.Merge's rules, here finally exercised across process
// boundaries) plus each shard's own snapshot, keyed by backend URL.
func (rt *Router) gatherFleet(r *http.Request) (obs.Snapshot, map[string]shardScrape) {
	fleet := obs.Snapshot{}
	shards := make(map[string]shardScrape, len(rt.cfg.Backends))
	snaps, errs := readShards[obs.Snapshot](rt, r, "/api/v1/metricsz", metricszLimit)
	for i, backend := range rt.cfg.Backends {
		if errs[i] != nil {
			continue
		}
		fleet.Merge(snaps[i])
		shards[backend] = shardScrape{instance: rt.instanceLabel(backend, i), snap: snaps[i]}
	}
	return fleet, shards
}

// instanceLabel names a shard in federated metric keys: its probed
// instance id when known, a positional fallback otherwise.
func (rt *Router) instanceLabel(backend string, i int) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if st := rt.state[backend]; st != nil && st.instance != "" {
		return st.instance
	}
	return fmt.Sprintf("shard%d", i)
}

// handleMetrics renders the router's own counters plus the federated
// fleet view: every shard's snapshot merged under "fleet." (so
// ap_fleet_serve_cache_hits is the fleet-wide total) and each shard's
// slice under "shard_<instance>." for per-shard drill-down, all in one
// Prometheus exposition.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := rt.live.Snapshot()
	fleet, shards := rt.gatherFleet(r)
	snap.Merge(fleet.WithPrefix("fleet."))
	for _, sc := range shards {
		snap.Merge(sc.snap.WithPrefix("shard_" + sc.instance + "."))
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	obs.WriteExposition(w, snap)
}

// handleMetricsz serves the same federation as JSON, from one gather
// pass: the router's own snapshot, the fleet merge, and each shard's raw
// snapshot keyed by instance. Because fleet and shards come from the same
// scrape, fleet always equals the exact merge of the shards in the same
// response — the invariant the federation tests pin.
func (rt *Router) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	fleet, scrapes := rt.gatherFleet(r)
	shards := make(map[string]obs.Snapshot, len(scrapes))
	for _, sc := range scrapes {
		shards[sc.instance] = sc.snap
	}
	rt.mw.WriteJSON(w, http.StatusOK, map[string]any{
		"router": rt.live.Snapshot(),
		"fleet":  fleet,
		"shards": shards,
	})
}

// Status is the body of GET /api/v1/fleet, which apload -fleet decodes
// too. The fields are declared in alphabetical key order: the body's
// layout is part of the API.
type Status struct {
	Backends []ShardStatus `json:"backends"`
	// Healthy counts the shards the last probe found healthy, of Total.
	Healthy int `json:"healthy"`
	Total   int `json:"total"`
}

// ShardStatus is one shard's row in the fleet Status.
type ShardStatus struct {
	Backend  string `json:"backend"`
	Instance string `json:"instance,omitempty"`
	Healthy  bool   `json:"healthy"`
	// The shard's queue and worker saturation at the last probe.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	WorkersBusy   int `json:"workers_busy"`
	WorkersTotal  int `json:"workers_total"`
	// CacheHitRate is hits/(hits+misses) over the shard's lifetime, from
	// its live metrics; -1 when the shard was unreachable or has served
	// no submissions.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// LastProbeMS is how many milliseconds ago the health prober last
	// reached a verdict on this shard; -1 before the first probe.
	LastProbeMS int64 `json:"last_probe_ms"`
}

// handleFleet serves the live fleet status: per-shard health, instance,
// queue and worker saturation (from the last health probe), cache hit
// rate (from an on-demand metrics scrape), and probe age.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	_, scrapes := rt.gatherFleet(r)
	now := time.Now()
	status := Status{Backends: make([]ShardStatus, 0, len(rt.cfg.Backends)), Total: len(rt.cfg.Backends)}
	rt.mu.Lock()
	for _, b := range rt.cfg.Backends {
		st := rt.state[b]
		fb := ShardStatus{
			Backend:       b,
			Instance:      st.instance,
			Healthy:       st.healthy,
			QueueDepth:    st.load.QueueDepth,
			QueueCapacity: st.load.QueueCapacity,
			WorkersBusy:   st.load.WorkersBusy,
			WorkersTotal:  st.load.WorkersTotal,
			CacheHitRate:  -1,
			LastProbeMS:   -1,
		}
		if !st.lastProbe.IsZero() {
			fb.LastProbeMS = now.Sub(st.lastProbe).Milliseconds()
		}
		if sc, ok := scrapes[b]; ok {
			hits := sc.snap["serve.cache_hits"]
			misses := sc.snap["serve.cache_misses"]
			if hits+misses > 0 {
				fb.CacheHitRate = float64(hits) / float64(hits+misses)
			}
		}
		if st.healthy {
			status.Healthy++
		}
		status.Backends = append(status.Backends, fb)
	}
	rt.mu.Unlock()
	rt.mw.WriteJSON(w, http.StatusOK, status)
}
