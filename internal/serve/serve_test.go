package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activepages/internal/radram"
	"activepages/internal/report"
)

// TestMetricsSnapshotPerBackend runs the quick array sweep on every
// catalog backend and checks MetricsSnapshot re-keys each backend's slice
// of the run aggregate from its namespace to its name, and no other
// backend's.
func TestMetricsSnapshotPerBackend(t *testing.T) {
	for _, bk := range radram.Backends() {
		s, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2}, true)
		resp, rn := submit(t, ts, `{"experiment":"array","quick":true,"backend":"`+bk.Name()+`"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit: HTTP %d", bk.Name(), resp.StatusCode)
		}
		if final := waitDone(t, ts, rn.ID); final.State != StateDone {
			t.Fatalf("%s: run finished %s: %s", bk.Name(), final.State, final.Error)
		}
		agg, snap := s.agg.Snapshot(), s.MetricsSnapshot()
		rekeyed := 0
		for k, v := range agg {
			if rest, ok := strings.CutPrefix(k, bk.Namespace+"."); ok {
				rekeyed++
				if got := snap[bk.Name()+"."+rest]; got != v {
					t.Errorf("%s: %s.%s = %d, want %s's %d", bk.Name(), bk.Name(), rest, got, k, v)
				}
			}
		}
		if rekeyed == 0 {
			t.Errorf("%s: no run rows under %s.", bk.Name(), bk.Namespace)
		}
		for _, other := range radram.Backends() {
			for k := range snap {
				if other.Name() != bk.Name() && strings.HasPrefix(k, other.Name()+".") {
					t.Errorf("%s run: snapshot has %s rows (%s)", bk.Name(), other.Name(), k)
					break
				}
			}
		}
	}
}

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
		// Benchmarks without a port on the backend (on one of them, for
		// "all") would fail in a worker.
		`{"experiment":"matrix-boeing","backend":"simdram","quick":true}`,
		`{"experiment":"mpeg-mmx","backend":"all","quick":true}`,
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
	if got := len(s.reg.list().Runs); got != 2 {
		t.Errorf("registry has %d runs, want 2 (shed run never recorded)", got)
	}

	// A queued (not yet executed) run refuses to serve artifacts.
	id := s.reg.list().Runs[0].ID
	if code, _ := get(t, ts.URL+"/api/v1/runs/"+id+"/output"); code != http.StatusConflict {
		t.Errorf("output of queued run: HTTP %d, want 409", code)
	}
}

// TestShedLeavesNoLeader: a shed submission and a failed leader each
// leave their spec cold, so a resubmission of either spec is a cold run
// with a new id, neither attached to a dead run nor refused.
func TestShedLeavesNoLeader(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, JobsPerRun: 1, RunTimeout: time.Nanosecond}, false)
	const a = `{"experiment":"array","quick":true,"page_bytes":8192}`
	const b = `{"experiment":"array","quick":true,"page_bytes":16384}`
	resp, leader := submit(t, ts, a)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(CacheResultHeader) != "miss" {
		t.Fatalf("first submit: HTTP %d %s %q", resp.StatusCode, CacheResultHeader, resp.Header.Get(CacheResultHeader))
	}
	if resp, _ := submit(t, ts, b); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to a full queue: HTTP %d, want 503", resp.StatusCode)
	}

	// The one-nanosecond budget fails the leader as soon as it starts.
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if rn := waitDone(t, ts, leader.ID); rn.State != StateFailed {
		t.Fatalf("leader: %s %s, want failed", rn.State, rn.Error)
	}
	for _, body := range []string{a, b} {
		resp, rn := submit(t, ts, body)
		if got := resp.Header.Get(CacheResultHeader); resp.StatusCode != http.StatusAccepted || got != "miss" {
			t.Errorf("resubmit %s: HTTP %d %s %q, want 202 miss", body, resp.StatusCode, CacheResultHeader, got)
		}
		if rn.ID == "" || rn.ID == leader.ID {
			t.Errorf("resubmit %s: run id %q, want a new one", body, rn.ID)
		}
		waitDone(t, ts, rn.ID)
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if len(s.reg.leaders) != 0 {
		t.Errorf("terminal runs still lead specs: %v", s.reg.leaders)
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
// the worker, once the run's dispatch has stopped, picks up the next run.
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

	// The single worker must still be live after the timed-out run: a
	// second run gets picked up and reaches its own terminal state (also a
	// timeout, under this config).
	_, rn2 := submit(t, ts, `{"experiment":"array","quick":true}`)
	if final := waitDone(t, ts, rn2.ID); final.State != StateFailed {
		t.Errorf("post-timeout run: %s %s", final.State, final.Error)
	}
	if got := s.runsFailed.Load(); got != 2 {
		t.Errorf("runs_failed = %d, want 2", got)
	}
}

// TestShutdownFailsQueuedRuns checks draining marks still-queued runs
// failed instead of silently dropping them, counts them in runs_failed,
// and flips healthz to 503.
func TestShutdownFailsQueuedRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4}, false)
	var ids []string
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"experiment":"array","quick":true,"page_bytes":%d}`, 8192<<i)
		_, rn := submit(t, ts, body)
		ids = append(ids, rn.ID)
	}

	// Start the pool only now, with admission already closed as Shutdown
	// closes it: every queued run must be failed, none executed.
	s.reg.close(s.queue)
	s.Start()
	<-s.workers
	for _, id := range ids {
		rn, ok := s.reg.get(id)
		if !ok || rn.State != StateFailed || !strings.Contains(rn.Error, "shutting down") {
			t.Errorf("run %s: %+v", id, rn)
		}
	}
	// Every submitted run is counted once it is terminal.
	if sub, done, failed := s.runsSubmitted.Load(), s.runsCompleted.Load(), s.runsFailed.Load(); sub != 3 || done != 0 || failed != 3 {
		t.Errorf("runs_submitted %d = runs_completed %d + runs_failed %d, want 3 = 0 + 3", sub, done, failed)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: HTTP %d, want 503", code)
	}
	if resp, _ := submit(t, ts, `{"experiment":"array","quick":true}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestTimedOutRunIsFinal: a run past its budget is marked failed only once
// its dispatch has stopped, so its trace and progress never change after
// it reads failed, not even while the worker executes the next run.
func TestTimedOutRunIsFinal(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 1, RunTimeout: 300 * time.Millisecond}, true)
	const spec = `{"experiment":"array"}`
	_, rn := submit(t, ts, spec)
	if final := waitDone(t, ts, rn.ID); final.State != StateFailed || !strings.Contains(final.Error, "timed out") {
		t.Fatalf("want a timeout failure, got %s: %s", final.State, final.Error)
	}
	read := func() (trace, progress []byte) {
		t.Helper()
		_, trace = get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/trace")
		_, progress = get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/progress")
		return trace, progress
	}
	trace, progress := read()

	_, next := submit(t, ts, spec)
	waitDone(t, ts, next.ID)
	if gotTrace, gotProgress := read(); !bytes.Equal(gotTrace, trace) || !bytes.Equal(gotProgress, progress) {
		t.Errorf("the failed run changed while the worker ran the next one:\ntrace %s\nthen  %s\nprogress %s\nthen     %s",
			trace, gotTrace, progress, gotProgress)
	}
}

// TestSubmitDuringShutdown races submissions against Shutdown. A
// submission is admitted before admission closes (202) or refused or shed
// after (503), never answered 500 by a send on the closed queue, and every
// admitted run ends counted as completed or failed.
func TestSubmitDuringShutdown(t *testing.T) {
	var bodies []string
	for _, backend := range []string{"radram", "simdram", "all"} {
		for pb := 8 << 10; pb <= 512<<10; pb <<= 1 {
			for flags := 0; flags < 8; flags++ {
				bodies = append(bodies, fmt.Sprintf(
					`{"experiment":"table1","backend":%q,"page_bytes":%d,"quick":%t,"regions":%t,"l2":%t}`,
					backend, pb, flags&1 != 0, flags&2 != 0, flags&4 != 0))
			}
		}
	}
	const rounds, clients, perClient = 300, 8, 3
	next := 0
	for round := 0; round < rounds; round++ {
		s := New(Config{Workers: 1, JobsPerRun: 1})
		s.Start()
		var (
			wg       sync.WaitGroup
			start    = make(chan struct{})
			answered atomic.Int64
			codes    [clients * perClient]int
			handler  = s.Handler()
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c, first int) {
				defer wg.Done()
				<-start
				for i := 0; i < perClient; i++ {
					body := bodies[(first+i)%len(bodies)]
					w := httptest.NewRecorder()
					handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/runs", strings.NewReader(body)))
					codes[c*perClient+i] = w.Code
					answered.Add(1)
				}
			}(c, next)
			next += perClient
		}
		close(start)
		// Each round shuts down after a different number of answers, so
		// the shutdown lands at every point of the submission stream.
		for answered.Load() < int64(round%len(codes)) {
			runtime.Gosched()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.Shutdown(ctx)
		cancel()
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		admitted := uint64(0)
		for _, code := range codes {
			switch code {
			case http.StatusAccepted:
				admitted++
			case http.StatusServiceUnavailable:
			default:
				t.Errorf("round %d: HTTP %d, want 202 or 503", round, code)
			}
		}
		if got := s.mw.Panics(); got != 0 {
			t.Fatalf("round %d: %d handler panics", round, got)
		}
		if sub, done, failed := s.runsSubmitted.Load(), s.runsCompleted.Load(), s.runsFailed.Load(); sub != admitted || done+failed != sub {
			t.Fatalf("round %d: %d admitted, runs_submitted %d, runs_completed %d, runs_failed %d",
				round, admitted, sub, done, failed)
		}
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
