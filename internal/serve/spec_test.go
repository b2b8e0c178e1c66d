package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"activepages/internal/experiments"
)

// runSpec submits body, waits for the run to finish and returns its id.
func runSpec(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	_, rn := submit(t, ts, body)
	if final := waitDone(t, ts, rn.ID); final.State != StateDone {
		t.Fatalf("%s finished %s: %s", body, final.State, final.Error)
	}
	return rn.ID
}

// artifact fetches one run artifact and its ETag.
func artifact(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := httpBody(resp)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %v", url, resp.StatusCode, err)
	}
	return body, resp.Header.Get("ETag")
}

// TestRunArtifactsDependOnSpecAlone: what a shard ran before must not
// change a run's artifacts. One server runs array and then array on
// SIMDRAM, which simulates the same conventional machines; a fresh server
// runs only the SIMDRAM spec. Both SIMDRAM runs must serve the same
// output, metrics and report bytes under the same ETags, and the output
// and metrics must equal a fresh dispatch of the spec outside any server.
func TestRunArtifactsDependOnSpecAlone(t *testing.T) {
	const spec = `{"experiment":"array","quick":true,"backend":"simdram"}`
	_, warm := newTestServer(t, Config{Workers: 1, JobsPerRun: 2}, true)
	runSpec(t, warm, `{"experiment":"array","quick":true}`)
	warmID := runSpec(t, warm, spec)
	_, fresh := newTestServer(t, Config{Workers: 1, JobsPerRun: 2}, true)
	freshID := runSpec(t, fresh, spec)

	served := map[string][]byte{}
	for _, path := range []string{"/output", "/metrics", "/report"} {
		a, aTag := artifact(t, warm.URL+"/api/v1/runs/"+warmID+path)
		b, bTag := artifact(t, fresh.URL+"/api/v1/runs/"+freshID+path)
		if !bytes.Equal(a, b) || aTag != bTag {
			t.Errorf("%s after another run differs from a fresh shard's (ETag %s vs %s)", path, aTag, bTag)
		}
		served[path] = b
	}

	var out bytes.Buffer
	metrics, err := Request{Experiment: "array", Quick: true, Backend: "simdram"}.
		dispatch(context.Background(), &out, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := metrics.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(j, '\n'), served["/metrics"]) {
		t.Error("served metrics differ from a fresh runner's dispatch")
	}
	if !bytes.Equal(out.Bytes(), served["/output"]) {
		t.Error("served output differs from a fresh runner's dispatch")
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestShardKeepsNoMachineState runs three cold specs at 256 KiB pages on
// one server and measures the live heap they leave behind while the
// server is still up. A run's checkpoint cache ends with the run, so what
// stays is the runs' artifacts and the applications' workload memos of the
// three problem sizes: about 20 MB on linux/amd64. The bound sits well
// below the roughly 100 MB of machine states a checkpoint cache kept
// across these runs would add.
func TestShardKeepsNoMachineState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	s, ts := newTestServer(t, Config{Workers: 1, JobsPerRun: 1}, true)
	before := liveHeap()
	for _, exp := range []string{"array", "database", "median-kernel"} {
		runSpec(t, ts, fmt.Sprintf(`{"experiment":%q,"quick":true,"page_bytes":262144}`, exp))
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(s)
	t.Logf("live heap grew %.1f MB over three cold runs", float64(grown)/(1<<20))
	const limit = 40 << 20
	if grown > limit {
		t.Errorf("live heap grew %d bytes over three finished runs, want at most %d", grown, limit)
	}
}

// TestSpecKeySoundness: requests that SpecKey maps to one key must
// dispatch identical artifacts, or the result store would answer one
// with the other's. Presentation flags are keyed verbatim even where an
// experiment never reads them; the test logs that lost sharing.
func TestSpecKeySoundness(t *testing.T) {
	dispatch := func(req Request) (out, metrics []byte) {
		t.Helper()
		var buf bytes.Buffer
		m, err := req.dispatch(context.Background(), &buf, 2, nil)
		if err != nil {
			t.Fatalf("%#v: %v", req, err)
		}
		j, err := m.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), j
	}
	base := Request{Experiment: "array", Quick: true}
	baseOut, baseMetrics := dispatch(base)
	for _, req := range []Request{
		{Experiment: "array", Quick: true, PageBytes: experiments.ScaledPageBytes},
		{Experiment: "array", Quick: true, Backend: "radram"},
	} {
		if SpecKey(req) != SpecKey(base) {
			t.Fatalf("%#v keys apart from %#v", req, base)
		}
		if out, metrics := dispatch(req); !bytes.Equal(out, baseOut) || !bytes.Equal(metrics, baseMetrics) {
			t.Errorf("%#v shares the key of %#v but dispatches different artifacts", req, base)
		}
	}
	for _, c := range []struct {
		flag string
		req  Request
	}{
		{"regions", Request{Experiment: "array", Quick: true, Regions: true}},
		{"l2", Request{Experiment: "array", Quick: true, L2: true}},
	} {
		if out, metrics := dispatch(c.req); bytes.Equal(out, baseOut) && bytes.Equal(metrics, baseMetrics) {
			t.Logf("over-keyed: %s with %s set dispatches exactly what it does without, under another key",
				c.req.Experiment, c.flag)
		}
	}
}
