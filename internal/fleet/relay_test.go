package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"activepages/internal/httpmw"
)

// TestRelayPooledBuffer proxies bodies larger than relay's pooled buffer
// from a fake shard: each must arrive byte-identical, with the shard's
// status and headers and the request id exactly once. Two bodies relayed
// concurrently must each get their own bytes: a pooled buffer never
// carries one reply into another (run it under -race too).
func TestRelayPooledBuffer(t *testing.T) {
	bodies := map[string][]byte{}
	for i, id := range []string{"b0-r000001", "b0-r000002"} {
		body := make([]byte, 100<<10+7+i) // three pool buffers and part of a fourth
		rand.New(rand.NewSource(int64(i + 1))).Read(body)
		bodies[id] = body
	}
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/v1/runs/"), "/output")
		body, ok := bodies[id]
		if !ok {
			http.NotFound(w, r)
			return
		}
		// A shard echoes the request id, as its middleware does.
		w.Header().Set(httpmw.RequestIDHeader, r.Header.Get(httpmw.RequestIDHeader))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("ETag", `"`+id+`"`)
		w.WriteHeader(http.StatusNonAuthoritativeInfo)
		w.Write(body)
	}))
	t.Cleanup(shard.Close)
	h := NewRouter(Config{Backends: []string{shard.URL}}).Handler()

	check := func(id, rid string) error {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/runs/"+id+"/output", nil)
		req.Header.Set(httpmw.RequestIDHeader, rid)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code != http.StatusNonAuthoritativeInfo:
			return fmt.Errorf("%s: HTTP %d, want 203", id, rec.Code)
		case rec.Header().Get("ETag") != `"`+id+`"` || rec.Header().Get("Content-Type") != "application/octet-stream":
			return fmt.Errorf("%s: headers not relayed: %v", id, rec.Header())
		case len(rec.Header().Values(httpmw.RequestIDHeader)) != 1 || rec.Header().Get(httpmw.RequestIDHeader) != rid:
			return fmt.Errorf("%s: request id %q, want %q once", id, rec.Header().Values(httpmw.RequestIDHeader), rid)
		case !bytes.Equal(rec.Body.Bytes(), bodies[id]):
			return fmt.Errorf("%s: relayed %d bytes that differ from the shard's %d", id, rec.Body.Len(), len(bodies[id]))
		}
		return nil
	}
	if err := check("b0-r000001", "rid-serial"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := []string{"b0-r000001", "b0-r000002"}[g%2]
			for i := 0; i < 25; i++ {
				if err := check(id, fmt.Sprintf("rid-%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRoutedHitAllocations bounds what one cached submit allocates end to
// end: the router's decode, hash, trace and relay, the loopback hop, and
// the shard's hit path and registry. A relay that allocates its own copy
// buffer per reply (io.Copy's 32 KiB) does not fit.
func TestRoutedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector, and sync.Pool drops a quarter of its buffers")
	}
	_, urls := startShards(t, 1, "b")
	h := NewRouter(Config{Backends: urls}).Handler()
	const body = `{"experiment":"array","quick":true}`
	var w *httptest.ResponseRecorder
	hit := func() string {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/runs", strings.NewReader(body)))
		return w.Header().Get("X-AP-Cache")
	}
	if got := hit(); got != "miss" {
		t.Fatalf("first submission: X-AP-Cache %q, want miss", got)
	}
	// Resubmit until the cold run is done and the spec answers from cache.
	for deadline := time.Now().Add(60 * time.Second); hit() != "hit"; {
		if time.Now().After(deadline) {
			t.Fatal("the cold run did not complete")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		hit()
	}

	const n = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if got := hit(); got != "hit" || w.Code != http.StatusAccepted {
			t.Fatalf("hit %d: HTTP %d, X-AP-Cache %q", i, w.Code, got)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("routed cached hit: %d B/op, %d allocs/op", perOp, (after.Mallocs-before.Mallocs)/n)
	if perOp >= 40<<10 {
		t.Errorf("routed cached hit allocates %d B/op, want under %d", perOp, 40<<10)
	}
}
