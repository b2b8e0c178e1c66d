package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"activepages/internal/obs"
	"activepages/internal/serve"
	"activepages/internal/sim"
)

// expositionLine is one line WriteExposition may emit: a TYPE comment or a
// sample, each under a legal metric name.
var expositionLine = regexp.MustCompile(
	`^(# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)|[a-zA-Z_][a-zA-Z0-9_]*(\{le="[^"]*"\})? -?[0-9]+)$`)

// FuzzDecodeMetricsz feeds arbitrary shard /metricsz bodies through the
// router's federation path: decode, merge twice, prefix as handleMetrics
// does, and render the exposition. No body may panic, and every rendered
// line must be a TYPE comment or a sample with a legal name.
func FuzzDecodeMetricsz(f *testing.F) {
	for _, seed := range [][]byte{
		shardMetricsz(f),
		syntheticMetricsz(f),
		[]byte(`{"a.b-c/d":1,"x_max":2,"plain":3}`),
		[]byte(`{"big.h.b64":1,"big.h.count":1,"big.h.sum_ns":9223372036854775807}`),
		[]byte(`{"x.h.b99":1,"x.h.b-1":2,"x.h.count":-3,"\n# TYPE y":4}`),
		[]byte(`null`), []byte(`{}`), []byte(`[]`), []byte(`{"a":1.5}`), []byte(``),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := decodeMetricsz(bytes.NewReader(body))
		if err != nil {
			return
		}
		fleet := obs.Snapshot{}
		fleet.Merge(snap)
		fleet.Merge(snap)
		out := obs.Snapshot{"router.requests": 1}
		out.Merge(fleet.WithPrefix("fleet."))
		out.Merge(snap.WithPrefix("shard_b0."))
		var b strings.Builder
		if err := obs.WriteExposition(&b, out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			if !expositionLine.MatchString(line) {
				t.Fatalf("body %q rendered a malformed line %q", body, line)
			}
		}
	})
}

// shardMetricsz returns a real shard's /api/v1/metricsz body, taken after
// one health probe so its HTTP histograms are populated.
func shardMetricsz(f *testing.F) []byte {
	f.Helper()
	lb, err := StartLocal(serve.Config{Workers: 1, QueueDepth: 1, JobsPerRun: 1, InstanceID: "b0"})
	if err != nil {
		f.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lb.Stop(ctx)
	}()
	var body []byte
	for _, path := range []string{"/healthz", "/api/v1/metricsz"} {
		resp, err := http.Get(lb.URL() + path)
		if err != nil {
			f.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			f.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
		}
	}
	return body
}

// syntheticMetricsz returns the snapshot the obs exposition tests render:
// a counter, a gauge and a histogram, as JSON.
func syntheticMetricsz(f *testing.F) []byte {
	f.Helper()
	h := obs.NewHistogram()
	for _, d := range []sim.Duration{0, sim.Nanosecond, sim.Nanosecond, 900 * sim.Nanosecond, 1 << 63} {
		h.Observe(d)
	}
	r := obs.New()
	r.Counter("conv.bus.reads", func() uint64 { return 12 })
	r.Gauge("conv.elapsed_max", func() int64 { return 99 })
	r.Histogram("mem.lat", h)
	body, err := json.Marshal(r.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	return body
}
