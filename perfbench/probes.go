package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"activepages/internal/apps/layout"
	"activepages/internal/experiments"
	"activepages/internal/fleet"
	"activepages/internal/memsys"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/serve"
)

// probeBatch is the shortest batch a probe times; probeBatches how many
// batches it times, reporting the median batch's cost per operation.
const (
	probeBatch   = 2 * time.Millisecond
	probeBatches = 11
)

// nsPerOp calibrates a batch size that runs for at least probeBatch, then
// times probeBatches batches and returns the median nanoseconds per op.
// op receives a running index so it can walk its inputs.
func nsPerOp(op func(i int)) float64 {
	n, i := 1, 0
	batch := func() time.Duration {
		start := time.Now()
		for k := 0; k < n; k++ {
			op(i)
			i++
		}
		return time.Since(start)
	}
	for batch() < probeBatch && n < 1<<24 {
		n *= 2
	}
	samples := make([]float64, probeBatches)
	for b := range samples {
		samples[b] = float64(batch()) / float64(n)
	}
	return median(samples)
}

// allocsPerOp counts heap allocations per call of op over n calls.
func allocsPerOp(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probe times one named call family and records it as a span.
func probe(rec *recorder, name string, op func(i int)) float64 {
	start := time.Now()
	v := nsPerOp(op)
	rec.add(span{Name: name, Cat: "probe", TID: tidProbe, Start: start, Dur: time.Since(start),
		Args: map[string]any{"ns_per_op": v}})
	return v
}

// probeSink keeps the compiler from discarding probed reads.
var probeSink uint32

// probePages is the database problem size the probe machine is warmed
// at: the 16-page point fig5, fig8, fig9 and the ablations measure.
const probePages = 16

// simProbes measures the simulator's layers through their public calls on
// the conventional machine the sweeps measure, in the state a database
// measure at probePages leaves it in, walking the database's own data.
func simProbes(rec *recorder) (map[string]float64, error) {
	cfg := radram.DefaultConfig().WithPageBytes(experiments.ScaledPageBytes)
	m := run.NewConventional(cfg)
	b, err := experiments.BenchmarkByName("database")
	if err != nil {
		return nil, err
	}
	if err := b.Run(m.Machine, probePages); err != nil {
		return nil, fmt.Errorf("probe machine: %w", err)
	}
	out := map[string]float64{}
	rm := m.Machine
	ck := rm.Checkpoint()
	out["radram.checkpoint_mb"] = float64(ck.Bytes()) / (1 << 20)
	out["radram.checkpoint_us"] = probe(rec, "radram.Checkpoint", func(int) { rm.Checkpoint() }) / 1e3
	var restoreErr error
	restore := func(int) {
		if err := rm.Restore(ck); err != nil {
			restoreErr = err
		}
	}
	out["radram.restore_us"] = probe(rec, "radram.Restore", restore) / 1e3
	out["radram.restore_allocs"] = allocsPerOp(20, restore)
	if restoreErr != nil {
		return nil, fmt.Errorf("probe restore: %w", restoreErr)
	}

	h := rm.Hier
	base := uint64(layout.DataBase)
	region := probePages * cfg.AP.PageBytes
	line := h.L1D.LineBytes()
	const chunk = 4096
	out["memsys.access_range_ns_per_line"] = probe(rec, "memsys.AccessRange", func(i int) {
		h.AccessRange(base+uint64(i)*chunk%region, chunk, memsys.Read)
	}) / float64(chunk/line)
	// A unit-stride record scan: fold-eligible, so StreamRun may fast-forward it.
	const stride = 16
	eligible := []memsys.StreamAcc{{Size: 4, Count: 1, Kind: memsys.Read}}
	iters := region / stride
	out["memsys.stream_run_ns_per_iter"] = probe(rec, "memsys.StreamRun eligible", func(int) {
		h.StreamRun(base, stride, iters, eligible)
	}) / float64(iters)
	// The same scan with a second operand advancing at its own stride:
	// never folds, so it measures the scalar line-run batcher.
	ineligible := []memsys.StreamAcc{{Size: 4, Count: 1, Kind: memsys.Read},
		{Off: 4, Size: 4, Count: 1, Kind: memsys.Read, Stride: 2 * stride}}
	out["memsys.stream_scalar_ns_per_iter"] = probe(rec, "memsys.StreamRun ineligible", func(int) {
		h.StreamRun(base, stride, iters/2, ineligible)
	}) / float64(iters/2)
	out["cache.access_ns"] = probe(rec, "cache.Access", func(i int) {
		h.L1D.Access(base+uint64(i)*line%region, false)
	})
	out["dram.access_time_ns"] = probe(rec, "dram.AccessTime", func(i int) {
		h.DRAM.AccessTime(base + uint64(i)*line%region)
	})
	st := rm.Store
	out["mem.read_u32_ns"] = probe(rec, "mem.ReadU32", func(i int) {
		probeSink += st.ReadU32(base + uint64(i)*4%region)
	})
	return out, nil
}

// serveProbes times a cached submission — the fleet-hot request — on one
// shard's handler, and the same submission through a router in front of
// that shard minus a direct POST to it, which leaves the router's hop.
func serveProbes(ctx context.Context, rec *recorder) (map[string]float64, error) {
	spec := hotSpecs()[1]
	body := mustJSON(spec)
	out := map[string]float64{}

	srv := serve.New(serve.Config{Workers: 1, JobsPerRun: 1})
	srv.Start()
	defer srv.Shutdown(ctx)
	h := srv.Handler()
	post := func(h http.Handler) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/runs", bytes.NewReader(body)))
		return w
	}
	if err := warmHandler(ctx, h, post); err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	hit := func(int) { post(h) }
	out["serve.submit_hit_us"] = probe(rec, "serve.Server.Handler POST (hit)", hit) / 1e3
	out["serve.submit_hit_allocs"] = allocsPerOp(200, hit)

	lb, err := fleet.StartLocal(serve.Config{Workers: 1, JobsPerRun: 1, InstanceID: "b0"})
	if err != nil {
		return nil, err
	}
	defer lb.Stop(ctx)
	rt := fleet.NewRouter(fleet.Config{Backends: []string{lb.URL()}})
	if rt.ProbeHealth() != 1 {
		return nil, fmt.Errorf("router probe: shard not healthy")
	}
	rh := rt.Handler()
	if err := warmHandler(ctx, rh, post); err != nil {
		return nil, fmt.Errorf("router probe: %w", err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var directErr error
	direct := func(int) {
		resp, err := client.Post(lb.URL()+"/api/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			directErr = err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	routed := probe(rec, "fleet.Router.Handler POST (hit)", func(int) { post(rh) })
	straight := probe(rec, "direct POST to shard (hit)", direct)
	if directErr != nil {
		return nil, fmt.Errorf("router probe: %w", directErr)
	}
	out["fleet.router_hop_us"] = (routed - straight) / 1e3
	return out, nil
}

// warmHandler submits the probe spec once through h and waits for its run
// to finish, so every later submission is a cache hit.
func warmHandler(ctx context.Context, h http.Handler, post func(http.Handler) *httptest.ResponseRecorder) error {
	w := post(h)
	if w.Code != http.StatusAccepted {
		return fmt.Errorf("warm submit: HTTP %d: %s", w.Code, w.Body.String())
	}
	loc := w.Header().Get("Location")
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); {
		g := httptest.NewRecorder()
		h.ServeHTTP(g, httptest.NewRequest(http.MethodGet, loc, nil))
		if bytes.Contains(g.Body.Bytes(), []byte(`"state": "done"`)) {
			if c := post(h).Header().Get(serve.CacheResultHeader); c != "hit" {
				return fmt.Errorf("resubmission answered %q, want hit", c)
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("warm run %s not done after a minute", loc)
}
