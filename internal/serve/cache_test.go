package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"activepages/internal/experiments"
	"activepages/internal/obs"
)

func TestSpecKeyNormalization(t *testing.T) {
	base := Request{Experiment: "array", Quick: true}
	key := SpecKey(base)

	// Defaults normalize: an empty backend is RADram, and an explicit page
	// size equal to the scaled default is the default.
	if got := SpecKey(Request{Experiment: "array", Quick: true, Backend: "radram"}); got != key {
		t.Errorf("explicit radram backend should key like the default")
	}
	if got := SpecKey(Request{Experiment: "array", Quick: true, PageBytes: experiments.ScaledPageBytes}); got != key {
		t.Errorf("explicit default page size should key like the default")
	}

	// Every semantic knob must flip the key.
	distinct := []Request{
		{Experiment: "array"},
		{Experiment: "database", Quick: true},
		{Experiment: "array", Quick: true, PageBytes: 16384},
		{Experiment: "array", Quick: true, Regions: true},
		{Experiment: "array", Quick: true, L2: true},
		{Experiment: "array", Quick: true, Backend: "simdram"},
	}
	seen := map[string]int{key: -1}
	for i, req := range distinct {
		k := SpecKey(req)
		if j, dup := seen[k]; dup {
			t.Errorf("request %d keys identically to %d: %+v", i, j, req)
		}
		seen[k] = i
	}

	// Keys are content addresses of stored results: a change to their bytes
	// cold-misses every cached run, so two are pinned verbatim.
	for body, want := range map[string]string{
		`{"experiment":"array","quick":true}`: "731fc463909b432274cbb7c176734f2ceb529a8970951f99af07c3fdc00d255d",
		`{"experiment":"median-kernel","quick":true,"page_bytes":65536,"regions":true,"backend":"simdram"}`: "994c2a858184aff070750a4b2dcaf317fb5586e412ce0d5154de300ed7877405",
	} {
		req, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got := SpecKey(req); got != want {
			t.Errorf("SpecKey(%s) = %s, want %s", body, got, want)
		}
	}
}

// TestSingleflightDedup is the concurrency contract of the submission
// path: M concurrent identical submissions execute the simulation exactly
// once, and every observer gets the leader's run id and artifacts. Run
// with -race this also proves the memo-lock bracketing is sound.
func TestSingleflightDedup(t *testing.T) {
	const m = 8
	// Workers start only after all m submissions landed, so the leader is
	// provably still in flight while the duplicates arrive.
	s, ts := newTestServer(t, Config{Workers: 1}, false)

	ids := make([]string, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
			}
			ids[i] = rn.ID
		}(i)
	}
	wg.Wait()

	for i := 1; i < m; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got run %s, want the leader %s", i, ids[i], ids[0])
		}
	}
	if got := s.cacheDedup.Load(); got != m-1 {
		t.Errorf("cacheDedup = %d, want %d", got, m-1)
	}
	if got := s.cacheMisses.Load(); got != 1 {
		t.Errorf("cacheMisses = %d, want 1", got)
	}

	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if rn := waitDone(t, ts, ids[0]); rn.State != StateDone {
		t.Fatalf("leader run: %s %s", rn.State, rn.Error)
	}
	// Exactly one simulation fed the aggregate.
	if got := s.agg.Runs(); got != 1 {
		t.Errorf("aggregated runs = %d, want 1 (deduped submissions must not execute)", got)
	}
	code, leaderOut := get(t, ts.URL+"/api/v1/runs/"+ids[0]+"/output")
	if code != http.StatusOK || len(leaderOut) == 0 {
		t.Fatalf("leader output: HTTP %d, %d bytes", code, len(leaderOut))
	}

	// A submission after completion is a cache hit: a new run id, marked
	// cached, already terminal in the submit response, same bytes.
	resp, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-completion submit: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(CacheResultHeader); got != "hit" {
		t.Errorf("%s = %q, want \"hit\"", CacheResultHeader, got)
	}
	if rn.ID == ids[0] {
		t.Errorf("cache hit reused the leader's id %s; want a fresh run record", rn.ID)
	}
	if rn.State != StateDone || !rn.Cached {
		t.Errorf("cache hit run: state=%s cached=%v, want done/true at submit time", rn.State, rn.Cached)
	}
	if _, hitOut := get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/output"); !bytes.Equal(hitOut, leaderOut) {
		t.Errorf("cached output differs from the executed run's (%d vs %d bytes)", len(hitOut), len(leaderOut))
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Errorf("cacheHits = %d, want 1", got)
	}
	if got := s.agg.Runs(); got != 1 {
		t.Errorf("aggregated runs = %d after cache hit, want still 1", got)
	}
}

// TestMemoCacheLRUEviction checks the server's result store charges each
// result its (*cachedRun).bytes against Config.CacheBudget: two 40-byte
// outputs take 80 of 100 bytes, and a third evicts one of them.
func TestMemoCacheLRUEviction(t *testing.T) {
	s := New(Config{CacheBudget: 100})
	out := bytes.Repeat([]byte("x"), 40)
	s.results.Add("a", &cachedRun{output: out})
	s.results.Add("b", &cachedRun{output: out})
	if got, ev := s.results.Bytes(), s.results.Evicted(); got != 80 || ev != 0 {
		t.Fatalf("storing a and b: %d bytes accounted, %d evicted; want 80, 0", got, ev)
	}
	s.results.Add("c", &cachedRun{output: out})
	if got, ev := s.results.Bytes(), s.results.Evicted(); got != 80 || ev != 1 {
		t.Errorf("storing c: %d bytes accounted, %d evicted; want 80, 1", got, ev)
	}
	if got := (&cachedRun{metrics: obs.Snapshot{"ab": 1}, groups: map[string]obs.Snapshot{"g": {"cd": 2}}}).bytes(); got != 10+1+10 {
		t.Errorf("snapshot entries charged %d bytes, want 21 (key bytes plus 8 per value)", got)
	}
}

// TestCachedSubmitAllocations bounds what one cached submission allocates
// on the shard alone, through Server.Handler: the decode, the admission,
// the finished record with its trace, retention, and the JSON answer. Go
// 1.24 on linux/amd64 measures about 13.6 KB and 82 allocations per hit.
func TestCachedSubmitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, _ := newTestServer(t, Config{Workers: 1, JobsPerRun: 1}, true)
	h := s.Handler()
	const body = `{"experiment":"array","quick":true}`
	var w *httptest.ResponseRecorder
	post := func() string {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/runs", strings.NewReader(body)))
		return w.Header().Get(CacheResultHeader)
	}
	if got := post(); got != "miss" {
		t.Fatalf("first submission: %s %q, want miss", CacheResultHeader, got)
	}
	for deadline := time.Now().Add(60 * time.Second); post() != "hit"; {
		if time.Now().After(deadline) {
			t.Fatal("the cold run did not complete")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Past the retention cap, so every measured hit also evicts a run.
	for i := 0; i < 300; i++ {
		post()
	}

	const n = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if got := post(); got != "hit" || w.Code != http.StatusAccepted {
			t.Fatalf("hit %d: HTTP %d, %s %q", i, w.Code, CacheResultHeader, got)
		}
	}
	runtime.ReadMemStats(&after)
	perOp, allocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("cached submit: %d B/op, %d allocs/op", perOp, allocs)
	if perOp >= 16<<10 || allocs >= 96 {
		t.Errorf("cached submit allocates %d B and %d times per op, want under %d B and 96", perOp, allocs, 16<<10)
	}
}

func TestArtifactETag(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, true)
	_, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
	waitDone(t, ts, rn.ID)

	for _, path := range []string{"/output", "/metrics", "/report"} {
		url := ts.URL + "/api/v1/runs/" + rn.ID + path
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		etag := resp.Header.Get("ETag")
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || etag == "" || ct == "" {
			t.Fatalf("%s: HTTP %d etag=%q content-type=%q", path, resp.StatusCode, etag, ct)
		}
		if !strings.HasPrefix(etag, `"`) || len(etag) != 66 {
			t.Errorf("%s: etag %q is not a quoted sha256", path, etag)
		}

		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", etag)
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := httpBody(resp2)
		if resp2.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("%s revalidation: HTTP %d with %d body bytes, want 304 empty", path, resp2.StatusCode, len(body))
		}
	}
}

func httpBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func TestEtagMatches(t *testing.T) {
	etag := `"abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"abc"`, true},
		{`W/"abc"`, true},
		{`"xyz", "abc"`, true},
		{`"xyz"`, false},
		{"*", true},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, etag); got != c.want {
			t.Errorf("etagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestCachedRunTrace pins the §13 contract for cached runs: the lifecycle
// trace still exists, with a zero queue wait and a near-zero cached
// execute span, so run timelines stay comparable across hits and misses.
func TestCachedRunTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, true)
	_, cold := submit(t, ts, `{"experiment":"array","quick":true}`)
	waitDone(t, ts, cold.ID)

	resp, hit := submit(t, ts, `{"experiment":"array","quick":true}`)
	if resp.Header.Get(CacheResultHeader) != "hit" {
		t.Fatalf("second submission was not a cache hit")
	}
	if hit.ElapsedMS > 1000 {
		t.Errorf("cached run elapsed %dms; want near-zero", hit.ElapsedMS)
	}
	code, trace := get(t, ts.URL+"/api/v1/runs/"+hit.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	for _, want := range []string{"queue_wait", "execute (cached)"} {
		if !bytes.Contains(trace, []byte(want)) {
			t.Errorf("cached run trace missing %q", want)
		}
	}
	// The structured event log (served on /progress) records the hit.
	code, prog := get(t, ts.URL+"/api/v1/runs/"+hit.ID+"/progress")
	if code != http.StatusOK || !bytes.Contains(prog, []byte("cache hit")) {
		t.Errorf("progress events missing the cache-hit entry (HTTP %d)", code)
	}
}

// TestInstancePrefixedIDs covers the fleet contract: a daemon with an
// instance id stamps it into run ids and reports it on /healthz.
func TestInstancePrefixedIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, InstanceID: "b7"}, true)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"instance": "b7"`)) {
		t.Fatalf("healthz: HTTP %d %s", code, body)
	}
	_, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
	if !strings.HasPrefix(rn.ID, "b7-r") {
		t.Errorf("run id %q lacks the b7- instance prefix", rn.ID)
	}
}
