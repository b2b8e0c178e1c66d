package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"activepages/internal/report"
)

// newTestServer builds a server with a small, fast configuration and an
// httptest frontend. Workers start only when start is set, so queue
// behavior can be tested deterministically without racing the pool.
func newTestServer(t *testing.T, cfg Config, start bool) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if start {
		s.Start()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit posts one run request and decodes the response.
func submit(t *testing.T, ts *httptest.Server, body string) (*http.Response, Run) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rn Run
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &rn)
	return resp, rn
}

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// waitDone polls a run until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) Run {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, data := get(t, ts.URL+"/api/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d: %s", id, code, data)
		}
		var rn Run
		if err := json.Unmarshal(data, &rn); err != nil {
			t.Fatal(err)
		}
		if rn.State == StateDone || rn.State == StateFailed {
			return rn
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return Run{}
}

// TestEndToEnd drives the full lifecycle over HTTP: submit a quick run,
// poll it to completion, and fetch its output, metrics, and report.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobsPerRun: 2}, true)

	if code, data := get(t, ts.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(data, []byte("ok")) {
		t.Fatalf("healthz: %d %s", code, data)
	}

	resp, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if rn.ID == "" || rn.State != StateQueued {
		t.Fatalf("submit response: %+v", rn)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/runs/"+rn.ID {
		t.Errorf("Location = %q", loc)
	}

	final := waitDone(t, ts, rn.ID)
	if final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}

	code, out := get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/output")
	if code != http.StatusOK || !bytes.Contains(out, []byte("Figure 3")) {
		t.Fatalf("output: %d\n%s", code, out)
	}

	code, mj := get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, mj)
	}
	snap, err := report.ParseMetrics(mj)
	if err != nil {
		t.Fatalf("run metrics do not parse: %v", err)
	}
	if snap["conv.proc.compute_ns"] <= 0 {
		t.Errorf("run metrics missing compute time: %v", snap.Names())
	}

	code, rep := get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/report")
	if code != http.StatusOK || !bytes.Contains(rep, []byte("Bottleneck attribution")) {
		t.Fatalf("report: %d\n%s", code, rep)
	}

	code, list := get(t, ts.URL+"/api/v1/runs")
	if code != http.StatusOK || !bytes.Contains(list, []byte(rn.ID)) {
		t.Fatalf("list: %d\n%s", code, list)
	}

	code, expo := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE ap_serve_runs_completed counter",
		"ap_serve_runs_completed 1",
		"ap_run_conv_proc_compute_ns",
		"ap_serve_run_wall_ns_bucket{le=",
		"go_goroutines",
	} {
		if !bytes.Contains(expo, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSubmitValidation covers the 400 paths and route errors.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, false)

	for _, body := range []string{
		`{"experiment":"bogus"}`,
		`{}`,
		`not json`,
		`{"experiment":"array","nope":1}`,
		`{"experiment":"array","page_bytes":3000}`,
		// A power of two below the 2 KiB DRAM row: the machine constructors
		// would panic, so the POST must fail before anything is queued.
		`{"experiment":"array","quick":true,"page_bytes":16}`,
		`{"experiment":"array","backend":"fpga"}`,
	} {
		if resp, _ := submit(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s): HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if code, body := get(t, ts.URL+"/api/v1/runs"); code != http.StatusOK || strings.Contains(string(body), `"id"`) {
		t.Errorf("rejected submissions left runs behind: HTTP %d %s", code, body)
	}

	if code, _ := get(t, ts.URL+"/api/v1/runs/r999999"); code != http.StatusNotFound {
		t.Errorf("missing run: HTTP %d, want 404", code)
	}
}

// TestQueueFullShedsLoad fills the queue of a server whose workers never
// start, so the overflow behavior is deterministic: QueueDepth submissions
// are accepted, the next is shed with 503, and the shed run leaves no
// registry entry behind.
func TestQueueFullShedsLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2}, false)

	// Distinct specs (page sizes), so the singleflight dedup does not
	// collapse them before they can occupy queue slots.
	for i, body := range []string{
		`{"experiment":"array","quick":true,"page_bytes":8192}`,
		`{"experiment":"array","quick":true,"page_bytes":16384}`,
	} {
		if resp, _ := submit(t, ts, body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d, want 202", i, resp.StatusCode)
		}
	}
	resp, _ := submit(t, ts, `{"experiment":"array","quick":true,"page_bytes":32768}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", resp.StatusCode)
	}
	if got := s.runsRejected.Load(); got != 1 {
		t.Errorf("runs_rejected = %d, want 1", got)
	}
	if got := len(s.reg.list()); got != 2 {
		t.Errorf("registry has %d runs, want 2 (shed run removed)", got)
	}

	// A queued (not yet executed) run refuses to serve artifacts.
	id := s.reg.list()[0].ID
	if code, _ := get(t, ts.URL+"/api/v1/runs/"+id+"/output"); code != http.StatusConflict {
		t.Errorf("output of queued run: HTTP %d, want 409", code)
	}
}

// TestConcurrentScrape scrapes /metrics continuously while runs execute;
// under -race this is the gate that a scrape never races the worker pool.
func TestConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobsPerRun: 2, QueueDepth: 8}, true)

	var ids []string
	for i := 0; i < 4; i++ {
		// Distinct page sizes keep all four submissions executing (a
		// duplicate spec would dedup or hit the result cache).
		body := fmt.Sprintf(`{"experiment":"array","quick":true,"page_bytes":%d}`, 8192<<i)
		resp, rn := submit(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		ids = append(ids, rn.ID)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, data := get(t, ts.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("/metrics: HTTP %d", code)
					return
				}
				if !bytes.Contains(data, []byte("ap_serve_runs_submitted")) {
					t.Error("scrape missing service counters")
					return
				}
			}
		}()
	}
	for _, id := range ids {
		if rn := waitDone(t, ts, id); rn.State != StateDone {
			t.Errorf("run %s: %s %s", id, rn.State, rn.Error)
		}
	}
	close(stop)
	wg.Wait()

	code, data := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !bytes.Contains(data, []byte("ap_serve_runs_completed 4")) {
		t.Errorf("final scrape: %d\n%.2000s", code, data)
	}
}

// TestRunTimeout checks a run that exceeds its budget is marked failed and
// the worker survives the abandonment to pick up the next run.
func TestRunTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 1, RunTimeout: 1 * time.Nanosecond}, true)

	_, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
	final := waitDone(t, ts, rn.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "timed out") {
		t.Fatalf("want timeout failure, got %s: %s", final.State, final.Error)
	}
	if got := s.runsFailed.Load(); got != 1 {
		t.Errorf("runs_failed = %d, want 1", got)
	}

	// The single worker must still be live after abandoning the timed-out
	// simulation: a second run gets picked up and reaches its own terminal
	// state (also a timeout, under this config).
	_, rn2 := submit(t, ts, `{"experiment":"array","quick":true}`)
	if final := waitDone(t, ts, rn2.ID); final.State != StateFailed {
		t.Errorf("post-timeout run: %s %s", final.State, final.Error)
	}
	if got := s.runsFailed.Load(); got != 2 {
		t.Errorf("runs_failed = %d, want 2", got)
	}
}

// TestShutdownFailsQueuedRuns checks draining marks still-queued runs
// failed instead of silently dropping them, and healthz flips to 503.
func TestShutdownFailsQueuedRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4}, false)
	var ids []string
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"experiment":"array","quick":true,"page_bytes":%d}`, 8192<<i)
		_, rn := submit(t, ts, body)
		ids = append(ids, rn.ID)
	}

	// Start the pool only now, already draining: every queued run must be
	// failed, none executed.
	s.draining.Store(true)
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rn, ok := s.reg.get(id)
		if !ok || rn.State != StateFailed || !strings.Contains(rn.Error, "shutting down") {
			t.Errorf("run %s: %+v", id, rn)
		}
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: HTTP %d, want 503", code)
	}
	if resp, _ := submit(t, ts, `{"experiment":"array","quick":true}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestPanicRecovery checks a panicking handler becomes a 500 and a
// counter, not a dead connection.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{}, false)
	s.handle("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	code, data := get(t, ts.URL+"/boom")
	if code != http.StatusInternalServerError || !bytes.Contains(data, []byte("internal error")) {
		t.Fatalf("panic route: %d %s", code, data)
	}
	if got := s.mw.Panics(); got != 1 {
		t.Errorf("http_panics = %d, want 1", got)
	}
	// The frontend must still serve.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz after panic: HTTP %d", code)
	}
}

// TestRequestString covers the log rendering helper.
func TestRequestString(t *testing.T) {
	req := Request{Experiment: "fig3", Quick: true, PageBytes: 4096}
	if got := req.String(); got != "fig3 quick pagebytes=4096" {
		t.Errorf("String() = %q", got)
	}
	req = Request{Experiment: "array", Backend: "simdram"}
	if got := req.String(); got != "array backend=simdram" {
		t.Errorf("String() = %q", got)
	}
}

// TestSimdramRunMetrics submits a SIMDRAM-backend run and checks that
// its metrics land in the backend's own namespace: the run snapshot
// carries "simdram." machine rows, and the daemon /metrics scrape
// surfaces them as ap_simdram_* alongside the run. aggregate.
func TestSimdramRunMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2}, true)

	resp, rn := submit(t, ts, `{"experiment":"array","quick":true,"backend":"simdram"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if final := waitDone(t, ts, rn.ID); final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}

	code, data := get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("run metrics: HTTP %d", code)
	}
	snap, err := report.ParseMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.BackendOf(snap); got != "simdram" {
		t.Errorf("BackendOf(run metrics) = %q, want simdram", got)
	}

	code, data = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{"ap_simdram_proc_compute_ns ", "ap_run_conv_proc_compute_ns "} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if bytes.Contains(data, []byte("ap_radram_")) {
		t.Error("/metrics has ap_radram_ rows from a simdram-only run")
	}
}
