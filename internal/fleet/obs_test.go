package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"activepages/internal/httpmw"
	"activepages/internal/obs"
	"activepages/internal/serve"
)

// getJSON fetches a router URL, decodes its JSON body into v and returns
// the body.
func getJSON(t *testing.T, url string, v any) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, data)
	}
	return data
}

// jsonKeys lists the keys of the JSON object data in the order the body
// lays them out.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", data)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("%v in %s", err, data)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatalf("%v in %s", err, data)
		}
	}
	return keys
}

// TestFederatedMetricsExactMerge pins the federation invariant: the
// "fleet" snapshot the router serves is the exact obs.Snapshot merge of
// the per-shard snapshots in the same response — counters and histogram
// buckets sum, "_max" gauges take the maximum — with the merge finally
// crossing process boundaries.
func TestFederatedMetricsExactMerge(t *testing.T) {
	_, _, ts := startFleet(t, 2)

	// Two distinct specs (they may land on either shard) plus a repeat of
	// the first, so the fleet has completed runs, a cache hit, and
	// populated histograms to merge.
	for _, spec := range []string{
		`{"experiment":"array","quick":true}`,
		`{"experiment":"array","quick":true,"page_bytes":16384}`,
	} {
		resp, rn := submitVia(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		waitDoneVia(t, ts, rn.ID)
	}
	submitVia(t, ts, `{"experiment":"array","quick":true}`) // cache hit

	var fed struct {
		Router obs.Snapshot            `json:"router"`
		Fleet  obs.Snapshot            `json:"fleet"`
		Shards map[string]obs.Snapshot `json:"shards"`
	}
	getJSON(t, ts.URL+"/api/v1/metricsz", &fed)
	if len(fed.Shards) != 2 {
		t.Fatalf("shards = %v, want 2 entries", len(fed.Shards))
	}

	expected := obs.Snapshot{}
	for _, snap := range fed.Shards {
		expected.Merge(snap)
	}
	if !reflect.DeepEqual(expected, fed.Fleet) {
		for k, v := range expected {
			if fed.Fleet[k] != v {
				t.Errorf("fleet[%q] = %d, exact merge gives %d", k, fed.Fleet[k], v)
			}
		}
		for k := range fed.Fleet {
			if _, ok := expected[k]; !ok {
				t.Errorf("fleet has %q, merge of shards does not", k)
			}
		}
	}

	// Spot checks on the merge rules: the counters sum, the capacity gauge
	// max-merges (both shards report 16, so the fleet value is 16, not 32).
	var hits, subs int64
	for _, snap := range fed.Shards {
		hits += snap["serve.cache_hits"]
		subs += snap["serve.runs_submitted"]
	}
	if hits != 1 || fed.Fleet["serve.cache_hits"] != hits {
		t.Errorf("fleet cache_hits = %d (shards sum %d), want 1", fed.Fleet["serve.cache_hits"], hits)
	}
	if subs != 3 || fed.Fleet["serve.runs_submitted"] != subs {
		t.Errorf("fleet runs_submitted = %d (shards sum %d), want 3", fed.Fleet["serve.runs_submitted"], subs)
	}
	if got := fed.Fleet["serve.queue_capacity_max"]; got != 16 {
		t.Errorf("fleet queue_capacity_max = %d, want 16 (max-merge, not sum)", got)
	}
	if fed.Router["router.requests"] != 3 {
		t.Errorf("router.requests = %d, want 3", fed.Router["router.requests"])
	}

	// The text exposition renders the same federation: the fleet aggregate
	// under ap_fleet_* and per-shard slices under ap_shard_<instance>_*,
	// next to the router's own middleware metrics.
	metrics := routerMetrics(t, ts)
	for _, want := range []string{
		"ap_fleet_serve_cache_hits 1",
		"ap_fleet_serve_runs_submitted 3",
		"ap_shard_b0_serve_runs_submitted",
		"ap_shard_b1_serve_runs_submitted",
		"ap_router_http_requests",
		"ap_router_http_post_api_v1_runs",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestFleetTraceSplice checks the end-to-end trace: fetching a routed
// run's trace through the router yields the shard's lifecycle trace with
// the router's routing spans spliced in as their own process, for
// executed and cached runs alike. Fetching through the shard directly
// (or a run the router never routed) stays un-spliced.
func TestFleetTraceSplice(t *testing.T) {
	_, backends, ts := startFleet(t, 2)

	resp, rn := submitVia(t, ts, `{"experiment":"array","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitDoneVia(t, ts, rn.ID)

	fetchTrace := func(id string) string {
		t.Helper()
		tr, err := http.Get(ts.URL + "/api/v1/runs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(tr.Body)
		tr.Body.Close()
		if tr.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: HTTP %d: %s", id, tr.StatusCode, data)
		}
		if !json.Valid(data) {
			t.Fatalf("trace %s is not valid JSON:\n%s", id, data)
		}
		return string(data)
	}

	doc := fetchTrace(rn.ID)
	for _, want := range []string{
		"aprouted (router)", "submit (router)", "attempts (router)",
		`"attempt `, `"relay"`, `"ring_lookup"`,
		`"execute"`, `"queue_wait"`, rn.ID + " (wall clock)",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("spliced trace missing %q", want)
		}
	}

	// A cached repeat gets its own run id and its own routing spans, over
	// the shard's cached-run lifecycle.
	resp2, rn2 := submitVia(t, ts, `{"experiment":"array","quick":true}`)
	if resp2.Header.Get(serve.CacheResultHeader) != "hit" {
		t.Fatalf("repeat = %q, want hit", resp2.Header.Get(serve.CacheResultHeader))
	}
	doc2 := fetchTrace(rn2.ID)
	for _, want := range []string{"aprouted (router)", "execute (cached)"} {
		if !strings.Contains(doc2, want) {
			t.Errorf("cached run's spliced trace missing %q", want)
		}
	}

	// Straight from the owning shard, the trace has no router process.
	for _, lb := range backends {
		resp, err := http.Get(lb.URL() + "/api/v1/runs/" + rn.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue // not the owner
		}
		if strings.Contains(string(data), "aprouted (router)") {
			t.Errorf("shard's own trace contains router spans")
		}
	}
}

// TestFleetStatusEndpoint checks /api/v1/fleet reports per-shard health,
// instance, saturation from the probed extended healthz, cache hit rate,
// and probe age, under the wire keys and in the layout clients read.
func TestFleetStatusEndpoint(t *testing.T) {
	_, _, ts := startFleet(t, 2)
	resp, rn := submitVia(t, ts, `{"experiment":"array","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitDoneVia(t, ts, rn.ID)
	submitVia(t, ts, `{"experiment":"array","quick":true}`) // cache hit on the owner

	var status struct {
		Healthy  int `json:"healthy"`
		Total    int `json:"total"`
		Backends []struct {
			Backend       string  `json:"backend"`
			Instance      string  `json:"instance"`
			Healthy       bool    `json:"healthy"`
			QueueDepth    int     `json:"queue_depth"`
			QueueCapacity int     `json:"queue_capacity"`
			WorkersBusy   int     `json:"workers_busy"`
			WorkersTotal  int     `json:"workers_total"`
			CacheHitRate  float64 `json:"cache_hit_rate"`
			LastProbeMS   int64   `json:"last_probe_ms"`
		} `json:"backends"`
	}
	data := getJSON(t, ts.URL+"/api/v1/fleet", &status)
	if status.Healthy != 2 || status.Total != 2 || len(status.Backends) != 2 {
		t.Fatalf("fleet status: %+v", status)
	}
	if got, want := jsonKeys(t, data), []string{"backends", "healthy", "total"}; !reflect.DeepEqual(got, want) {
		t.Errorf("fleet status keys = %q, want %q", got, want)
	}
	var rows struct {
		Backends []json.RawMessage `json:"backends"`
	}
	json.Unmarshal(data, &rows)
	wantRow := []string{"backend", "instance", "healthy", "queue_depth", "queue_capacity",
		"workers_busy", "workers_total", "cache_hit_rate", "last_probe_ms"}
	for _, row := range rows.Backends {
		if got := jsonKeys(t, row); !reflect.DeepEqual(got, wantRow) {
			t.Errorf("fleet status row keys = %q, want %q", got, wantRow)
		}
	}
	owner := instancePrefix(rn.ID)
	seenOwner := false
	for _, b := range status.Backends {
		if !b.Healthy || b.Instance == "" {
			t.Errorf("backend %s: healthy=%v instance=%q", b.Backend, b.Healthy, b.Instance)
		}
		if b.WorkersTotal != 1 || b.QueueCapacity != 16 {
			t.Errorf("backend %s: workers_total=%d queue_capacity=%d, want 1/16 (from extended healthz)",
				b.Backend, b.WorkersTotal, b.QueueCapacity)
		}
		if b.LastProbeMS < 0 {
			t.Errorf("backend %s: last_probe_ms=%d, want >= 0 after the startup probe", b.Backend, b.LastProbeMS)
		}
		if b.Instance == owner {
			seenOwner = true
			if b.CacheHitRate != 0.5 {
				t.Errorf("owner cache_hit_rate = %v, want 0.5 (1 hit, 1 miss)", b.CacheHitRate)
			}
		}
	}
	if !seenOwner {
		t.Errorf("no fleet row for owning instance %q", owner)
	}
}

// TestHungShardDoesNotStallReads pins that the router's own reads of its
// shards are bounded and concurrent. Three shards accept connections and
// never answer; the listing and the metrics federation behind
// /api/v1/metricsz, /metrics and /api/v1/fleet must still answer from the
// live shard within 4 s, where reading the hung shards one after another
// takes three 2 s probe timeouts, and count each read of a hung shard in
// router.proxy_errors.
func TestHungShardDoesNotStallReads(t *testing.T) {
	const hungShards = 3
	_, urls := startShards(t, 1, "b")
	release := make(chan struct{})
	backends := urls[:1]
	for range hungShards {
		hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		t.Cleanup(hung.Close)
		backends = append(backends, hung.URL)
	}
	rt := NewRouter(Config{Backends: backends})
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: release the hung handlers before
	// closing the servers, which wait for them.
	t.Cleanup(func() { close(release) })

	paths := []string{"/api/v1/runs", "/api/v1/metricsz", "/metrics", "/api/v1/fleet"}
	client := &http.Client{Timeout: 10 * time.Second}
	errs := make(chan error, len(paths))
	for _, path := range paths {
		go func() {
			start := time.Now()
			resp, err := client.Get(ts.URL + path)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("HTTP %d", resp.StatusCode)
				} else if d := time.Since(start); d >= 4*time.Second {
					err = fmt.Errorf("answered after %v: the hung shards were read one at a time", d)
				}
			}
			if err != nil {
				err = fmt.Errorf("GET %s with %d hung shards: %w", path, hungShards, err)
			}
			errs <- err
		}()
	}
	for range paths {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got, want := rt.proxyErrors.Load(), uint64(hungShards*len(paths)); got != want {
		t.Errorf("router.proxy_errors = %d, want %d: one per read of a hung shard", got, want)
	}
}

// TestClientCancelKeepsShardHealthy checks that a client giving up on a
// read does not count against the shard that was answering it. The shard
// holds every read until the router's request to it ends; each client
// cancels once its read has reached the shard. The proxied reads (a run
// view, a trace) and the router's own (the listing, the metrics
// federation) must leave the shard healthy and router.proxy_errors at 0.
func TestClientCancelKeepsShardHealthy(t *testing.T) {
	arrived := make(chan struct{}, 1)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(serve.Health{Status: "ok"})
			return
		}
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(shard.Close)
	rt := NewRouter(Config{Backends: []string{shard.URL}})
	if got := rt.ProbeHealth(); got != 1 {
		t.Fatalf("ProbeHealth = %d healthy, want 1", got)
	}
	served := make(chan struct{}, 1)
	h := rt.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		served <- struct{}{}
	}))
	t.Cleanup(ts.Close)

	for _, path := range []string{"/api/v1/runs/r000001", "/api/v1/runs/r000001/trace", "/api/v1/runs", "/api/v1/metricsz"} {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			<-arrived
			cancel()
		}()
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("GET %s answered HTTP %d; want the client's cancellation", path, resp.StatusCode)
		}
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("GET %s: the router still serves the canceled read", path)
		}
		rt.mu.Lock()
		healthy := rt.state[shard.URL].healthy
		rt.mu.Unlock()
		if !healthy {
			t.Errorf("GET %s: a client's cancellation marked the shard unhealthy", path)
		}
		if got := rt.proxyErrors.Load(); got != 0 {
			t.Errorf("GET %s: router.proxy_errors = %d after a client's cancellation, want 0", path, got)
		}
	}
}

// TestRouterRequestIDStamped checks fleet-wide request correlation: the
// router stamps one X-AP-Request-Id per inbound request (client-provided
// or generated, never duplicated by the shard's echo), forwards it to the
// shard, and the shard records it in the run.
func TestRouterRequestIDStamped(t *testing.T) {
	_, _, ts := startFleet(t, 2)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/runs",
		strings.NewReader(`{"experiment":"array","quick":true}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(httpmw.RequestIDHeader, "feedfacecafebeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Values(httpmw.RequestIDHeader); len(got) != 1 || got[0] != "feedfacecafebeef" {
		t.Fatalf("response request id = %v, want exactly one echo of the inbound id", got)
	}
	var rn serve.Run
	if err := json.Unmarshal(data, &rn); err != nil {
		t.Fatal(err)
	}
	if rn.RequestID != "feedfacecafebeef" {
		t.Errorf("run request_id = %q, want the router-forwarded id", rn.RequestID)
	}
	waitDoneVia(t, ts, rn.ID)

	// Without a client-provided id the router generates one; proxied reads
	// carry it too.
	resp2, err := http.Get(ts.URL + "/api/v1/runs/" + rn.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	ids := resp2.Header.Values(httpmw.RequestIDHeader)
	if len(ids) != 1 || !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(ids[0]) {
		t.Errorf("proxied read request id = %v, want one generated 16-hex id", ids)
	}
}

// TestRouterRequestIDOnShed checks a shed submission (dead fleet) still
// answers with a request id, so a failed submit is traceable in logs.
func TestRouterRequestIDOnShed(t *testing.T) {
	_, backends, ts := startFleet(t, 1)
	backends[0].Kill()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json",
		strings.NewReader(`{"experiment":"array","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to dead fleet: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(httpmw.RequestIDHeader) == "" {
		t.Error("shed submission has no request id")
	}
}

// TestRouterPanicRecovered checks the shared recoverer fronts the router
// mux: a panicking route answers 500 and the router keeps serving.
func TestRouterPanicRecovered(t *testing.T) {
	rt := NewRouter(Config{Backends: []string{"http://127.0.0.1:1"}})
	mux := http.NewServeMux()
	rt.mw.Handle(mux, "GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(rt.mw.Recoverer(mux))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic route: HTTP %d, want 500", resp.StatusCode)
	}
	if rt.mw.Panics() != 1 {
		t.Errorf("panics = %d, want 1", rt.mw.Panics())
	}
}
