package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"activepages/internal/serve"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	backends := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := newRing(backends)
	r2 := newRing([]string{backends[2], backends[0], backends[1]})

	counts := make(map[string]int)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("spec-%d", i)
		o1, o2 := r1.order(key), r2.order(key)
		if len(o1) != len(backends) {
			t.Fatalf("order(%q) has %d entries, want all %d backends", key, len(o1), len(backends))
		}
		seen := map[string]bool{}
		for j := range o1 {
			// Placement must not depend on backend list order.
			if o1[j] != o2[j] {
				t.Fatalf("order(%q) differs across permuted rings: %v vs %v", key, o1, o2)
			}
			seen[o1[j]] = true
		}
		if len(seen) != len(backends) {
			t.Fatalf("order(%q) repeats a backend: %v", key, o1)
		}
		counts[o1[0]]++
	}
	// FNV + 64 vnodes keeps the imbalance modest; the floor here is loose
	// (a third of fair share) so the test pins sanity, not the constant.
	for _, b := range backends {
		if counts[b] < 3000/len(backends)/3 {
			t.Errorf("backend %s owns only %d/3000 keys — ring badly imbalanced: %v", b, counts[b], counts)
		}
	}
}

// startFleet brings up n in-process shards plus a router fronting them.
func startFleet(t *testing.T, n int) (*Router, []*LocalBackend, *httptest.Server) {
	t.Helper()
	backends, urls := startShards(t, n, "b")
	rt := NewRouter(Config{Backends: urls})
	if got := rt.ProbeHealth(); got != n {
		t.Fatalf("ProbeHealth = %d healthy, want %d", got, n)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, backends, ts
}

// startShards brings up n in-process shards, the i-th with instance id
// prefix+i, or none when prefix is empty.
func startShards(t *testing.T, n int, prefix string) ([]*LocalBackend, []string) {
	t.Helper()
	var backends []*LocalBackend
	var urls []string
	for i := 0; i < n; i++ {
		cfg := serve.Config{Workers: 1, QueueDepth: 16, JobsPerRun: 1}
		if prefix != "" {
			cfg.InstanceID = fmt.Sprintf("%s%d", prefix, i)
		}
		lb, err := StartLocal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			lb.Stop(ctx)
		})
		backends = append(backends, lb)
		urls = append(urls, lb.URL())
	}
	return backends, urls
}

// submitVia posts one run through the router.
func submitVia(t *testing.T, ts *httptest.Server, body string) (*http.Response, serve.Run) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rn serve.Run
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &rn)
	return resp, rn
}

func waitDoneVia(t *testing.T, ts *httptest.Server, id string) serve.Run {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d: %s", id, resp.StatusCode, data)
		}
		var rn serve.Run
		if err := json.Unmarshal(data, &rn); err != nil {
			t.Fatal(err)
		}
		if rn.State == serve.StateDone || rn.State == serve.StateFailed {
			return rn
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return serve.Run{}
}

func routerMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func TestFleetEndToEnd(t *testing.T) {
	rt, _, ts := startFleet(t, 3)

	// A submission routes to the spec's ring owner, whose instance shows in
	// the run id prefix.
	spec := `{"experiment":"array","quick":true}`
	resp, rn := submitVia(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get(serve.CacheResultHeader) != "miss" {
		t.Errorf("first submission %s = %q, want miss", serve.CacheResultHeader, resp.Header.Get(serve.CacheResultHeader))
	}
	if !strings.Contains(rn.ID, "-r") {
		t.Fatalf("run id %q is not instance-prefixed", rn.ID)
	}
	owner := rt.ring.owner(serve.SpecKey(serve.Request{Experiment: "array", Quick: true}))
	if backend := rt.backendFor(rn.ID); backend != owner {
		t.Errorf("run landed on %s, ring owner is %s", backend, owner)
	}

	if done := waitDoneVia(t, ts, rn.ID); done.State != serve.StateDone {
		t.Fatalf("run: %s %s", done.State, done.Error)
	}

	// The repeat hits the owner's result cache, through the router.
	resp2, rn2 := submitVia(t, ts, spec)
	if resp2.Header.Get(serve.CacheResultHeader) != "hit" {
		t.Errorf("repeat submission %s = %q, want hit", serve.CacheResultHeader, resp2.Header.Get(serve.CacheResultHeader))
	}
	if !rn2.Cached || rn2.State != serve.StateDone {
		t.Errorf("repeat run: cached=%v state=%s, want cached done", rn2.Cached, rn2.State)
	}
	if instancePrefix(rn2.ID) != instancePrefix(rn.ID) {
		t.Errorf("repeat landed on shard %q, first on %q — same spec must route to the same shard",
			instancePrefix(rn2.ID), instancePrefix(rn.ID))
	}

	// Artifact reads proxy to the owning shard, ETag revalidation included.
	resp3, err := http.Get(ts.URL + "/api/v1/runs/" + rn.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	etag := resp3.Header.Get("ETag")
	if resp3.StatusCode != http.StatusOK || len(out) == 0 || etag == "" {
		t.Fatalf("proxied output: HTTP %d, %d bytes, etag %q", resp3.StatusCode, len(out), etag)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/runs/"+rn.ID+"/output", nil)
	req.Header.Set("If-None-Match", etag)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotModified {
		t.Errorf("proxied revalidation: HTTP %d, want 304", resp4.StatusCode)
	}

	// The merged listing sees both runs; the metrics page carries the
	// router's counters.
	listResp, err := http.Get(ts.URL + "/api/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := io.ReadAll(listResp.Body)
	listResp.Body.Close()
	if !bytes.Contains(listing, []byte(rn.ID)) || !bytes.Contains(listing, []byte(rn2.ID)) {
		t.Errorf("merged listing missing runs %s/%s", rn.ID, rn2.ID)
	}
	metrics := routerMetrics(t, ts)
	for _, want := range []string{
		"ap_router_requests 2",
		"ap_router_cache_hits 1",
		"ap_router_cache_misses 1",
		"ap_router_backends_healthy_max 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router metrics missing %q", want)
		}
	}

	// An id no shard owns is a clean 404.
	nf, err := http.Get(ts.URL + "/api/v1/runs/zz-r999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, nf.Body)
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d, want 404", nf.StatusCode)
	}
}

// TestRouterReadsByPrefix pins how the router finds the shard that owns a
// run id: by the instance prefix it carries, learned from /healthz or from
// the submit answer that allocated it, or the only shard there is.
func TestRouterReadsByPrefix(t *testing.T) {
	get := func(t *testing.T, ts *httptest.Server, path string) (int, serve.Run) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rn serve.Run
		json.NewDecoder(resp.Body).Decode(&rn)
		return resp.StatusCode, rn
	}

	// Shards without an instance id both number their first run r000001:
	// the router cannot tell whose run a read means, so it must refuse
	// rather than serve one shard's run under the other's id.
	t.Run("AmbiguousAcrossShards", func(t *testing.T) {
		_, urls := startShards(t, 2, "")
		rt := NewRouter(Config{Backends: urls})
		rt.ProbeHealth()
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		// Submit one array spec to each shard.
		owners := map[string]bool{}
		for i := 0; len(owners) < 2 && i < 64; i++ {
			req := serve.Request{Experiment: "array", Quick: true,
				PageBytes: 8192 << (i % 7), Regions: i&8 != 0, L2: i&16 != 0, Backend: []string{"", "simdram"}[i/32]}
			if owner := rt.ring.owner(serve.SpecKey(req)); !owners[owner] {
				owners[owner] = true
				body, _ := json.Marshal(req)
				if _, rn := submitVia(t, ts, string(body)); rn.ID != "r000001" {
					t.Fatalf("run on %s has id %q, want r000001", owner, rn.ID)
				}
			}
		}
		if len(owners) < 2 {
			t.Fatal("every candidate spec hashed to one shard")
		}
		for _, path := range []string{"/api/v1/runs/r000001", "/api/v1/runs/r000001/trace"} {
			if code, _ := get(t, ts, path); code != http.StatusNotFound {
				t.Errorf("GET %s across two unprefixed shards: HTTP %d, want 404", path, code)
			}
		}
	})

	t.Run("OneShardUnprefixed", func(t *testing.T) {
		_, urls := startShards(t, 1, "")
		rt := NewRouter(Config{Backends: urls})
		rt.ProbeHealth()
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		_, rn := submitVia(t, ts, `{"experiment":"array","quick":true}`)
		if code, got := get(t, ts, "/api/v1/runs/"+rn.ID); code != http.StatusOK || got.ID != rn.ID {
			t.Errorf("GET %q on a one-shard router: HTTP %d, id %q", rn.ID, code, got.ID)
		}
	})

	// A router that has not probed yet learns the prefix from the id the
	// shard allocated.
	t.Run("LearnedFromSubmit", func(t *testing.T) {
		_, urls := startShards(t, 3, "b")
		ts := httptest.NewServer(NewRouter(Config{Backends: urls}).Handler())
		t.Cleanup(ts.Close)
		_, rn := submitVia(t, ts, `{"experiment":"array","quick":true}`)
		if code, got := get(t, ts, "/api/v1/runs/"+rn.ID); code != http.StatusOK || got.ID != rn.ID {
			t.Errorf("GET %q before any probe: HTTP %d, id %q", rn.ID, code, got.ID)
		}
	})
}

// TestFleetFailover kills a spec's ring owner without telling the router
// (no re-probe), so the first submit attempt dials a dead shard: the
// router must retry the next replica in ring order and succeed.
func TestFleetFailover(t *testing.T) {
	rt, backends, ts := startFleet(t, 3)

	spec := serve.Request{Experiment: "array", Quick: true, PageBytes: 16384}
	owner := rt.ring.owner(serve.SpecKey(spec))
	for _, lb := range backends {
		if lb.URL() == owner {
			lb.Kill()
		}
	}

	resp, rn := submitVia(t, ts, `{"experiment":"array","quick":true,"page_bytes":16384}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with dead owner: HTTP %d", resp.StatusCode)
	}
	if rt.retries.Load() < 1 {
		t.Errorf("retries = %d, want >= 1 (owner was dead)", rt.retries.Load())
	}
	fallback := rt.ring.order(serve.SpecKey(spec))[1]
	if got := rt.backendFor(rn.ID); got != fallback {
		t.Errorf("failover landed on %s, want next replica %s", got, fallback)
	}
	if done := waitDoneVia(t, ts, rn.ID); done.State != serve.StateDone {
		t.Fatalf("failover run: %s %s", done.State, done.Error)
	}

	// The failed dial marked the owner unhealthy; a probe confirms, and the
	// router's health surface reflects the degraded fleet.
	if got := rt.ProbeHealth(); got != 2 {
		t.Errorf("ProbeHealth = %d, want 2 after killing one shard", got)
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hc.Body)
	hc.Body.Close()
	if hc.StatusCode != http.StatusOK || !bytes.Contains(hbody, []byte(`"backends_healthy": 2`)) {
		t.Errorf("router healthz after kill: HTTP %d %s", hc.StatusCode, hbody)
	}
}

// TestRouterShedsWhenFleetDown: with every shard dead the router exhausts
// the ring and sheds with 503.
func TestRouterShedsWhenFleetDown(t *testing.T) {
	rt, backends, ts := startFleet(t, 2)
	for _, lb := range backends {
		lb.Kill()
	}
	resp, _ := submitVia(t, ts, `{"experiment":"array","quick":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to dead fleet: HTTP %d, want 503", resp.StatusCode)
	}
	if rt.shed.Load() != 1 {
		t.Errorf("shed = %d, want 1", rt.shed.Load())
	}
	if rt.ProbeHealth() != 0 {
		t.Errorf("probe found healthy shards in a dead fleet")
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hc.Body)
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no healthy backends: HTTP %d, want 503", hc.StatusCode)
	}
}

func TestRouterRejectsBadSubmission(t *testing.T) {
	_, backends, ts := startFleet(t, 1)
	for _, body := range []string{
		`{nope`,
		`{"experiment":"nope"}`,
		`{"experiment":"array","page_bytes":16}`,
		`{"experiment":"array","page_bytes":4096}`,
		`{"experiment":"array","page_bytes":1048576}`,
		`{"experiment":"array","bogus":true}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	// The router refuses before hashing: no bad body reaches the shard.
	if n := backends[0].Server().MetricsSnapshot()["serve.http.post_api_v1_runs.h.count"]; n != 0 {
		t.Errorf("shard received %d bad submissions, want 0", n)
	}
}
