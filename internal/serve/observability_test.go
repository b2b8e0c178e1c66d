package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"activepages/internal/obs"
	"activepages/internal/run"
)

// progressResponse mirrors handleProgress's JSON for decoding in tests.
type progressView struct {
	ID       string               `json:"id"`
	State    State                `json:"state"`
	Progress run.ProgressSnapshot `json:"progress"`
	EtaMS    int64                `json:"eta_ms"`
	Evicted  bool                 `json:"evicted"`
	Events   []obs.WallEvent      `json:"events"`
}

func getProgress(t *testing.T, ts *httptest.Server, id string) progressView {
	t.Helper()
	code, data := get(t, ts.URL+"/api/v1/runs/"+id+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress %s: HTTP %d: %s", id, code, data)
	}
	var pv progressView
	if err := json.Unmarshal(data, &pv); err != nil {
		t.Fatalf("progress %s: %v\n%s", id, err, data)
	}
	return pv
}

// TestProgressMonotonic polls /progress continuously while a run executes
// and checks the counters only ever move forward: points_done never
// decreases, never exceeds points_total, and the final reading accounts
// for every scheduled point.
func TestProgressMonotonic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2}, true)

	resp, rn := submit(t, ts, `{"experiment":"array","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	// The endpoint answers from submission onward — no waiting for a
	// terminal state (the run may already be executing by now).
	pv := getProgress(t, ts, rn.ID)
	if pv.ID != rn.ID {
		t.Fatalf("first progress poll: %+v", pv)
	}

	var lastDone int64 = -1
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		pv = getProgress(t, ts, rn.ID)
		if pv.Progress.PointsDone < lastDone {
			t.Fatalf("points_done went backwards: %d -> %d", lastDone, pv.Progress.PointsDone)
		}
		if pv.Progress.PointsDone > pv.Progress.PointsTotal {
			t.Fatalf("points_done %d exceeds points_total %d",
				pv.Progress.PointsDone, pv.Progress.PointsTotal)
		}
		lastDone = pv.Progress.PointsDone
		if pv.State == StateDone || pv.State == StateFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if pv.State != StateDone {
		t.Fatalf("run ended %s", pv.State)
	}
	if pv.Progress.PointsTotal == 0 || pv.Progress.PointsDone != pv.Progress.PointsTotal {
		t.Fatalf("final progress %d/%d, want complete and nonzero",
			pv.Progress.PointsDone, pv.Progress.PointsTotal)
	}
	if pv.Progress.Measures == 0 || pv.Progress.LastBenchmark != "array" {
		t.Errorf("measure detail missing: %+v", pv.Progress)
	}
	if pv.Progress.Label != "array" {
		t.Errorf("label = %q, want array", pv.Progress.Label)
	}

	// The structured event log carries the lifecycle transitions.
	msgs := make(map[string]bool)
	for _, ev := range pv.Events {
		msgs[ev.Msg] = true
	}
	for _, want := range []string{"submitted", "worker pickup", "run done"} {
		if !msgs[want] {
			t.Errorf("event log missing %q: %+v", want, pv.Events)
		}
	}

	// The run view carries the same snapshot.
	final := waitDone(t, ts, rn.ID)
	if final.Progress == nil || final.Progress.PointsDone != pv.Progress.PointsDone {
		t.Errorf("run view progress = %+v, want %d points", final.Progress, pv.Progress.PointsDone)
	}
}

// TestQueueWaitObserved saturates a single worker so the second run
// measurably queues, then checks the wait shows up in the lifecycle
// stamps, the queue-wait histogram, and the run's trace.
func TestQueueWaitObserved(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2, QueueDepth: 8}, true)

	// Distinct specs: an identical second submission would dedup onto the
	// first run instead of queueing its own execution.
	_, first := submit(t, ts, `{"experiment":"array","quick":true}`)
	_, second := submit(t, ts, `{"experiment":"array","quick":true,"page_bytes":16384}`)
	waitDone(t, ts, first.ID)
	rn := waitDone(t, ts, second.ID)
	if rn.State != StateDone {
		t.Fatalf("second run: %s %s", rn.State, rn.Error)
	}
	if rn.Started == nil || !rn.Started.After(rn.Submitted) {
		t.Errorf("second run should have waited: submitted=%v started=%v",
			rn.Submitted, rn.Started)
	}

	if n := s.queueWait.Count(); n < 2 {
		t.Errorf("queue_wait observations = %d, want >= 2", n)
	}
	code, data := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if !bytes.Contains(data, []byte("ap_serve_queue_wait_ns_bucket")) {
		t.Error("/metrics missing ap_serve_queue_wait_ns_bucket")
	}

	// The trace attributes the wait explicitly.
	code, tj := get(t, ts.URL+"/api/v1/runs/"+second.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	if !bytes.Contains(tj, []byte(`"queue_wait"`)) {
		t.Error("trace missing queue_wait span")
	}
}

// traceDoc is the Chrome trace_event document shape the golden checker in
// internal/obs pins; the HTTP trace export must round-trip through it.
type traceDoc struct {
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	TraceEvents     []map[string]any `json:"traceEvents"`
}

// TestTraceEndpoint fetches a run's trace mid-run and after completion and
// checks both are well-formed Chrome trace JSON carrying the lifecycle and
// sweep-point spans.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2}, true)

	_, rn := submit(t, ts, `{"experiment":"array","quick":true}`)

	// Mid-run (or still queued): the export must be valid JSON at any
	// moment, a consistent prefix of the final trace.
	code, data := get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("mid-run trace: HTTP %d", code)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("mid-run trace not valid JSON: %v\n%.500s", err, data)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}

	if final := waitDone(t, ts, rn.ID); final.State != StateDone {
		t.Fatalf("run: %s %s", final.State, final.Error)
	}
	code, data = get(t, ts.URL+"/api/v1/runs/"+rn.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("final trace: HTTP %d", code)
	}
	doc = traceDoc{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("final trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("final trace has no events")
	}
	names := make(map[string]bool)
	var hasPoint, hasProcess bool
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
			if pointSpanRE.MatchString(n) {
				hasPoint = true
			}
			// The process label is carried by a metadata event's args.
			if n == "process_name" {
				if args, ok := ev["args"].(map[string]any); ok &&
					args["name"] == rn.ID+" (wall clock)" {
					hasProcess = true
				}
			}
		}
	}
	for _, want := range []string{"queue_wait", "execute", "artifact_write"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %v)", want, names)
		}
	}
	if !hasPoint {
		t.Error("trace has no sweep-point spans")
	}
	if !hasProcess {
		t.Errorf("trace missing wall-clock process label (have %v)", names)
	}
}

var pointSpanRE = regexp.MustCompile(`^point \d+/\d+$`)

// TestRunTraceMarksFailures feeds a run's progress callbacks one failed
// and one successful point and measure, and reads the span names back
// from the trace's Chrome export: only the failed ones say so.
func TestRunTraceMarksFailures(t *testing.T) {
	start := time.Now()
	trace := obs.NewWallTracer(start)
	prog := newRunProgress(trace)
	canceled := fmt.Errorf("run canceled: %w", context.Canceled)
	prog.OnPoint(run.PointEvent{Done: 1, Total: 2, Start: start, Wall: time.Millisecond, Err: canceled})
	prog.OnPoint(run.PointEvent{Done: 2, Total: 2, Start: start, Wall: time.Millisecond})
	prog.OnMeasure(run.MeasureEvent{Benchmark: "array", Pages: 8, ConvCheckpoint: "cold",
		Start: start, Wall: time.Millisecond, Err: canceled})
	prog.OnMeasure(run.MeasureEvent{Benchmark: "array", Pages: 4, ConvCheckpoint: "cold",
		APCheckpoint: "branch", Start: start, Wall: time.Millisecond})
	prog.OnMeasure(run.MeasureEvent{Benchmark: "database", Pages: 2,
		Start: start, Wall: time.Millisecond, Err: errors.New("injected")})

	var b bytes.Buffer
	if err := trace.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, b.String())
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok && ev["ph"] == "X" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	want := []string{"array p=4 conv=cold ap=branch", "array p=8 conv=cold ap= failed",
		"database p=2 failed", "point 1/2 failed", "point 2/2"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("span names = %q, want %q", names, want)
	}
}

// TestRetentionEviction caps the registry at one retained terminal run and
// checks older runs decay to tombstones: lifecycle JSON survives, artifact
// and trace endpoints answer 410, and the eviction counter reaches /metrics.
func TestRetentionEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2, RetainRuns: 1}, true)

	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct page sizes: identical specs would complete from the
		// result cache with no sweep points, and the tombstone progress
		// check below wants executed runs.
		body := fmt.Sprintf(`{"experiment":"array","quick":true,"page_bytes":%d}`, 8192<<i)
		_, rn := submit(t, ts, body)
		if rn := waitDone(t, ts, rn.ID); rn.State != StateDone {
			t.Fatalf("run %d: %s %s", i, rn.State, rn.Error)
		}
		ids = append(ids, rn.ID)
	}

	if got := s.runsEvicted.Load(); got != 2 {
		t.Fatalf("runs_evicted = %d, want 2", got)
	}
	// The two oldest runs are tombstones; the newest keeps its artifacts.
	for _, id := range ids[:2] {
		code, data := get(t, ts.URL+"/api/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("tombstone view %s: HTTP %d", id, code)
		}
		var rn Run
		if err := json.Unmarshal(data, &rn); err != nil {
			t.Fatal(err)
		}
		if !rn.Evicted || rn.State != StateDone {
			t.Errorf("tombstone %s: evicted=%v state=%s", id, rn.Evicted, rn.State)
		}
		for _, ep := range []string{"/output", "/metrics", "/report", "/trace"} {
			if code, _ := get(t, ts.URL+"/api/v1/runs/"+id+ep); code != http.StatusGone {
				t.Errorf("%s%s: HTTP %d, want 410", id, ep, code)
			}
		}
		// Progress outlives eviction: the tombstone still reports its tally.
		if pv := getProgress(t, ts, id); !pv.Evicted || pv.Progress.PointsDone == 0 {
			t.Errorf("tombstone progress %s: %+v", id, pv)
		}
	}
	if code, _ := get(t, ts.URL+"/api/v1/runs/"+ids[2]+"/output"); code != http.StatusOK {
		t.Errorf("newest run's output: HTTP %d, want 200", code)
	}

	code, data := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !bytes.Contains(data, []byte("ap_serve_runs_evicted 2")) {
		t.Errorf("/metrics missing ap_serve_runs_evicted 2 (HTTP %d)", code)
	}
}

// TestRetentionBounded runs cached hits past both retention bounds: an
// evicted run keeps only its lifecycle record and final progress tally,
// the registry keeps at most 16 × RetainRuns tombstones beside the
// RetainRuns runs with artifacts, and a forgotten id answers 404.
func TestRetentionBounded(t *testing.T) {
	const retain = 2
	s, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 2, RetainRuns: retain}, true)
	const spec = `{"experiment":"array","quick":true}`
	_, first := submit(t, ts, spec)
	if rn := waitDone(t, ts, first.ID); rn.State != StateDone {
		t.Fatalf("cold run: %s %s", rn.State, rn.Error)
	}
	tally := getProgress(t, ts, first.ID).Progress
	if tally.PointsDone == 0 {
		t.Fatalf("cold run progress: %+v", tally)
	}
	hits := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if resp, rn := submit(t, ts, spec); resp.Header.Get(CacheResultHeader) != "hit" || rn.State != StateDone {
				t.Fatalf("resubmission: %s %q, state %s", CacheResultHeader, resp.Header.Get(CacheResultHeader), rn.State)
			}
		}
	}

	// retain hits evict the executed run to a tombstone that keeps its tally.
	hits(retain)
	if code, _ := get(t, ts.URL+"/api/v1/runs/"+first.ID+"/output"); code != http.StatusGone {
		t.Errorf("tombstone output: HTTP %d, want 410", code)
	}
	if pv := getProgress(t, ts, first.ID); !pv.Evicted || pv.Progress != tally {
		t.Errorf("tombstone progress: evicted=%v %+v, want the final tally %+v", pv.Evicted, pv.Progress, tally)
	}

	hits(20 * retain)
	s.reg.mu.Lock()
	held := len(s.reg.runs)
	for id, r := range s.reg.runs {
		if r.Evicted && (r.trace != nil || r.progress != nil || r.spec != "") {
			t.Errorf("tombstone %s holds trace=%v progress=%v spec=%q", id, r.trace != nil, r.progress != nil, r.spec)
		}
	}
	s.reg.mu.Unlock()
	if held > retain+tombstonesPerRetained*retain {
		t.Errorf("registry holds %d runs, want at most %d", held, retain+tombstonesPerRetained*retain)
	}
	for _, ep := range []string{"", "/progress"} {
		if code, _ := get(t, ts.URL+"/api/v1/runs/"+first.ID+ep); code != http.StatusNotFound {
			t.Errorf("forgotten run %s%s: HTTP %d, want 404", first.ID, ep, code)
		}
	}
}

// TestPprofGated checks the profiling endpoints exist only behind the flag.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, Config{}, false)
	if code, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without flag: HTTP %d, want 404", code)
	}
	_, on := newTestServer(t, Config{EnablePprof: true}, false)
	if code, data := get(t, on.URL+"/debug/pprof/cmdline"); code != http.StatusOK || len(data) == 0 {
		t.Errorf("pprof with flag: HTTP %d", code)
	}
}

// TestHealthzLoadFields checks the extended health report: the historical
// status/instance fields keep their shape while queue and worker load ride
// along, so a router probe doubles as a saturation reading.
func TestHealthzLoadFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7, InstanceID: "b0"}, false)
	code, data := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d %s", code, data)
	}
	var body struct {
		Status        string `json:"status"`
		Instance      string `json:"instance"`
		QueueDepth    *int   `json:"queue_depth"`
		QueueCapacity int    `json:"queue_capacity"`
		WorkersBusy   *int   `json:"workers_busy"`
		WorkersTotal  int    `json:"workers_total"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, data)
	}
	if body.Status != "ok" || body.Instance != "b0" {
		t.Errorf("status=%q instance=%q, want ok/b0", body.Status, body.Instance)
	}
	if body.QueueDepth == nil || body.WorkersBusy == nil {
		t.Fatalf("load fields missing: %s", data)
	}
	if *body.QueueDepth != 0 || body.QueueCapacity != 7 || *body.WorkersBusy != 0 || body.WorkersTotal != 3 {
		t.Errorf("load fields = %s, want depth 0/7 busy 0/3", data)
	}
}

// TestMetricszSnapshot checks the federation endpoint serves the same
// snapshot /metrics renders, as JSON a router can obs.Snapshot-merge.
func TestMetricszSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{}, true)
	if resp, _ := submit(t, ts, `{"experiment":"array","quick":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	code, data := get(t, ts.URL+"/api/v1/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: HTTP %d %s", code, data)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metricsz body: %v", err)
	}
	if got := snap["serve.runs_submitted"]; got != 1 {
		t.Errorf("serve.runs_submitted = %d, want 1", got)
	}
	if _, ok := snap["serve.http.get_healthz.h.count"]; len(snap.Names()) == 0 && !ok {
		t.Errorf("snapshot suspiciously empty: %v", snap.Names())
	}
	_ = s
}
