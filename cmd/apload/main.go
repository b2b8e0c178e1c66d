// Command apload load-tests an apserved daemon (or an aprouted fleet): it
// submits n runs across c concurrent clients, polls each to completion,
// and prints a tail-latency summary of the end-to-end run lifecycle
// (submit -> done) plus a queue-wait versus execute attribution taken from
// the daemon's own lifecycle stamps — so saturation (time spent waiting
// for a worker) is visible separately from simulation cost — and a
// cache-hit column showing how many runs were answered from the
// content-addressed result cache.
//
// Usage:
//
//	apload -addr http://127.0.0.1:8080 -n 50 -c 8 -experiment array -quick
//	apload -addr http://127.0.0.1:8090 -n 500 -c 16 -zipf 1.1 -specs 12
//	apload -addr http://127.0.0.1:8090 -fleet
//
// -fleet skips the load run and instead prints the router's live fleet
// status (/api/v1/fleet): per-shard health, queue and worker saturation,
// cache hit rate, and probe age. Failed submissions print the response's
// X-AP-Request-Id so the failure can be joined to the router's and
// shard's access logs.
//
// By default every submission is the same spec. -zipf S instead draws each
// submission from a population of -specs distinct run specs (the base
// experiment crossed with other experiments and superpage sizes) with
// Zipf-distributed popularity: rank r is requested proportionally to
// 1/(r+1)^S. That is the skewed request mix a result cache thrives on —
// a few hot specs dominate, a long tail stays cold — and -seed makes the
// sequence reproducible.
//
// A shedding daemon's 503 is retried with backoff, but -timeout bounds each
// run from its first submission attempt to its completion: a run still
// shed at the deadline fails with the last 503 body and its request id.
//
// The exit status is nonzero if any submission is rejected, any run fails
// or times out, or any poll errors — so CI can use apload as a smoke gate
// on the daemon.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"activepages/internal/fleet"
	"activepages/internal/httpmw"
	"activepages/internal/serve"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "apload:", err)
		os.Exit(1)
	}
}

// printFleet renders the router's live fleet status as a one-line-per-
// shard table: health, saturation, cache hit rate, and probe age.
func printFleet(addr string) error {
	resp, err := http.Get(addr + "/api/v1/fleet")
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet status: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var status fleet.Status
	if err := json.Unmarshal(data, &status); err != nil {
		return fmt.Errorf("fleet status: %w", err)
	}
	fmt.Printf("apload: fleet %d/%d backends healthy\n", status.Healthy, status.Total)
	for _, b := range status.Backends {
		health := "healthy"
		if !b.Healthy {
			health = "DOWN"
		}
		hit := "n/a"
		if b.CacheHitRate >= 0 {
			hit = fmt.Sprintf("%.1f%%", 100*b.CacheHitRate)
		}
		probe := "never"
		if b.LastProbeMS >= 0 {
			probe = fmt.Sprintf("%dms ago", b.LastProbeMS)
		}
		instance := b.Instance
		if instance == "" {
			instance = "-"
		}
		fmt.Printf("apload:   %-6s %-28s %-8s queue %d/%d  workers %d/%d  cache-hit %-6s probed %s\n",
			instance, b.Backend, health,
			b.QueueDepth, b.QueueCapacity, b.WorkersBusy, b.WorkersTotal, hit, probe)
	}
	if status.Healthy == 0 {
		return fmt.Errorf("no healthy backends")
	}
	return nil
}

// sleep pauses for d, or until ctx ends if that comes first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runResult is one submission's end-to-end outcome. queueWait and execute
// come from the daemon's lifecycle stamps (started-submitted and
// finished-started), attributing where the wall time went server-side.
type runResult struct {
	id        string
	err       error
	cached    bool          // answered from the result cache
	elapsed   time.Duration // submit -> observed done (client-observed)
	queueWait time.Duration // submitted -> worker pickup (daemon stamps)
	execute   time.Duration // worker pickup -> finished (daemon stamps)
}

// spec is one member of the request population: a marshaled submission
// body and the label the summary prints for it.
type spec struct {
	body  []byte
	label string
}

// buildSpecs generates the -zipf request population: the base experiment
// first (rank 0, the hottest spec), then the cross product of a small
// experiment set with the superpage-size axis, deduplicated, clamped to n.
// Popularity rank == generation order, so the base spec dominates a skewed
// mix.
func buildSpecs(base, backend string, quick bool, n int) []spec {
	exps := []string{base}
	for _, e := range []string{"database", "median-kernel"} {
		if e != base {
			exps = append(exps, e)
		}
	}
	pageBytes := []uint64{0, 16384, 32768, 65536, 131072, 262144}
	var out []spec
	for _, pb := range pageBytes {
		for _, e := range exps {
			if len(out) >= n {
				return out
			}
			body := map[string]any{"experiment": e, "quick": quick}
			if pb != 0 {
				body["page_bytes"] = pb
			}
			if backend != "" {
				body["backend"] = backend
			}
			b, _ := json.Marshal(body)
			label := e
			if pb != 0 {
				label += fmt.Sprintf(" pb=%d", pb)
			}
			out = append(out, spec{body: b, label: label})
		}
	}
	if n > len(out) {
		fmt.Fprintf(os.Stderr, "apload: spec population clamped to %d distinct specs\n", len(out))
	}
	return out
}

// zipfSampler draws spec ranks with probability proportional to
// 1/(rank+1)^s, by inverse-CDF over the cumulative weights. Unlike
// math/rand's Zipf it accepts any s > 0 (s <= 1 included), and it is
// seeded, so a load mix is reproducible run to run.
type zipfSampler struct {
	mu  sync.Mutex
	rng *rand.Rand
	cum []float64
}

func newZipfSampler(s float64, n int, seed int64) *zipfSampler {
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	return &zipfSampler{rng: rand.New(rand.NewSource(seed)), cum: cum}
}

func (z *zipfSampler) next() int {
	z.mu.Lock()
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	z.mu.Unlock()
	return sort.SearchFloat64s(z.cum, u)
}

func realMain() error {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8080", "apserved or aprouted base URL")
		n          = flag.Int("n", 50, "total runs to submit")
		c          = flag.Int("c", 8, "concurrent clients")
		experiment = flag.String("experiment", "array", "experiment to submit (the hottest spec under -zipf)")
		backendSel = flag.String("backend", "", "compute backend to request (radram, simdram, or all; empty = daemon default)")
		quick      = flag.Bool("quick", true, "submit quick (short-axis) runs")
		zipfS      = flag.Float64("zipf", 0, "Zipf skew s for the request mix; 0 submits one spec only")
		nspecs     = flag.Int("specs", 8, "distinct specs in the -zipf population")
		seed       = flag.Int64("seed", 1, "RNG seed for the -zipf request sequence")
		poll       = flag.Duration("poll", 50*time.Millisecond, "status poll interval")
		timeout    = flag.Duration("timeout", 5*time.Minute, "per-run deadline, from its first submission attempt to completion")
		fleetOnly  = flag.Bool("fleet", false, "print the router's fleet status (/api/v1/fleet) and exit")
	)
	flag.Parse()

	switch {
	case *n < 1:
		return fmt.Errorf("-n %d: submit at least 1 run", *n)
	case *c < 1:
		return fmt.Errorf("-c %d: need at least 1 client", *c)
	case !(*zipfS >= 0) || math.IsInf(*zipfS, 1):
		return fmt.Errorf("-zipf %g: want a finite skew >= 0", *zipfS)
	case *poll <= 0:
		return fmt.Errorf("-poll %s: want an interval above 0", *poll)
	case *timeout <= 0:
		return fmt.Errorf("-timeout %s: want a deadline above 0", *timeout)
	}
	if *fleetOnly {
		return printFleet(*addr)
	}

	// The request population: one spec in the classic mode, a Zipf-ranked
	// set under -zipf.
	var specs []spec
	var sampler *zipfSampler
	if *zipfS > 0 {
		if *nspecs < 1 {
			return fmt.Errorf("-specs must be >= 1")
		}
		specs = buildSpecs(*experiment, *backendSel, *quick, *nspecs)
		sampler = newZipfSampler(*zipfS, len(specs), *seed)
	} else {
		reqBody := map[string]any{"experiment": *experiment, "quick": *quick}
		if *backendSel != "" {
			reqBody["backend"] = *backendSel
		}
		b, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		specs = []spec{{body: b, label: *experiment}}
	}
	// Keep an idle connection per client goroutine: the default transport
	// caps idle conns per host at 2, which under -c 16 forces a TCP dial on
	// most requests and measures the dialer instead of the daemon.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *c * 2,
			MaxIdleConnsPerHost: *c * 2,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	// do issues one request of a run under its deadline and reads the
	// whole answer.
	do := func(ctx context.Context, method, url string, body []byte) (*http.Response, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data, err
	}

	// Shed-aware submission: a 503 (queue full) retries with backoff until
	// the run's deadline, since load shedding is the daemon working as
	// designed; any other non-202 is a hard failure. The accepted run
	// view is returned whole: a cache hit is already terminal at submit
	// time, and the caller then skips the poll loop entirely.
	submit := func(ctx context.Context, body []byte) (serve.Run, error) {
		backoff := *poll
		var shed error // the last 503, the failure if the deadline passes
		for {
			resp, data, err := do(ctx, http.MethodPost, *addr+"/api/v1/runs", body)
			if err != nil {
				if shed != nil && ctx.Err() != nil {
					err = fmt.Errorf("still shed at -timeout %s: %w", *timeout, shed)
				}
				return serve.Run{}, err
			}
			if resp.StatusCode == http.StatusAccepted {
				var run serve.Run
				if err := json.Unmarshal(data, &run); err != nil || run.ID == "" {
					return serve.Run{}, fmt.Errorf("bad submit response: %s", data)
				}
				return run, nil
			}
			// The request id joins a failure to the router's and shard's
			// access-log lines for the same interaction.
			failure := fmt.Errorf("submit: HTTP %d (request_id=%s): %s",
				resp.StatusCode, resp.Header.Get(httpmw.RequestIDHeader), strings.TrimSpace(string(data)))
			if resp.StatusCode != http.StatusServiceUnavailable {
				return serve.Run{}, failure
			}
			shed = failure
			sleep(ctx, backoff)
			if backoff < time.Second {
				backoff *= 2
			}
		}
	}

	// finished extracts the terminal attribution from a run view, or
	// reports that the run is still in flight.
	finished := func(run serve.Run) (queueWait, execute time.Duration, cached, terminal bool, err error) {
		switch run.State {
		case serve.StateDone:
			if run.Started != nil {
				queueWait = run.Started.Sub(run.Submitted)
				if run.Finished != nil {
					execute = run.Finished.Sub(*run.Started)
				}
			}
			return queueWait, execute, run.Cached, true, nil
		case serve.StateFailed:
			return 0, 0, false, true, fmt.Errorf("run %s failed: %s", run.ID, run.Error)
		}
		return 0, 0, false, false, nil
	}

	// wait polls the run view until the run reaches a terminal state and
	// returns the daemon-stamped queue-wait (submitted -> started) and
	// execute (started -> finished) durations for the latency attribution,
	// plus whether the run was answered from the result cache.
	wait := func(ctx context.Context, id string) (queueWait, execute time.Duration, cached bool, err error) {
		for {
			resp, data, err := do(ctx, http.MethodGet, *addr+"/api/v1/runs/"+id, nil)
			if err != nil {
				if ctx.Err() != nil {
					err = fmt.Errorf("run %s did not finish within -timeout %s", id, *timeout)
				}
				return 0, 0, false, err
			}
			if resp.StatusCode != http.StatusOK {
				return 0, 0, false, fmt.Errorf("poll %s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(data)))
			}
			var run serve.Run
			if err := json.Unmarshal(data, &run); err != nil {
				return 0, 0, false, fmt.Errorf("poll %s: %w", id, err)
			}
			qw, ex, cached, terminal, err := finished(run)
			if terminal || err != nil {
				return qw, ex, cached, err
			}
			sleep(ctx, *poll)
		}
	}

	label := *experiment
	if *backendSel != "" {
		label += " backend=" + *backendSel
	}
	if sampler != nil {
		fmt.Printf("apload: %d runs, zipf s=%g over %d specs (hottest %q), across %d clients against %s\n",
			*n, *zipfS, len(specs), specs[0].label, *c, *addr)
	} else {
		fmt.Printf("apload: %d x %q (quick=%v) across %d clients against %s\n",
			*n, label, *quick, *c, *addr)
	}
	start := time.Now()
	results := make([]runResult, *n)
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= *n {
					return
				}
				body := specs[0].body
				if sampler != nil {
					body = specs[sampler.next()].body
				}
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), *timeout)
				var qw, ex time.Duration
				var cached bool
				run, err := submit(ctx, body)
				if err == nil {
					// A cache hit (or failure) is terminal in the submit
					// response itself; only runs still executing need the
					// poll loop.
					var terminal bool
					qw, ex, cached, terminal, err = finished(run)
					if !terminal && err == nil {
						qw, ex, cached, err = wait(ctx, run.ID)
					}
				}
				cancel()
				results[i] = runResult{id: run.ID, err: err, cached: cached,
					elapsed: time.Since(t0), queueWait: qw, execute: ex}
			}
		}()
	}
	wg.Wait()
	total := time.Since(start)

	var failed, hits int
	latencies := make([]time.Duration, 0, *n)
	queueWaits := make([]time.Duration, 0, *n)
	executes := make([]time.Duration, 0, *n)
	var queueTotal, execTotal time.Duration
	for _, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "apload: %v\n", r.err)
			continue
		}
		if r.cached {
			hits++
		}
		latencies = append(latencies, r.elapsed)
		queueWaits = append(queueWaits, r.queueWait)
		executes = append(executes, r.execute)
		queueTotal += r.queueWait
		execTotal += r.execute
	}
	quantiles := func(ds []time.Duration) func(float64) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return func(p float64) time.Duration {
			if len(ds) == 0 {
				return 0
			}
			return ds[int(p*float64(len(ds)-1))]
		}
	}
	ok := len(latencies)
	throughput := 0.0
	if total > 0 {
		throughput = float64(ok) / total.Seconds()
	}
	hitRate := 0.0
	if ok > 0 {
		hitRate = 100 * float64(hits) / float64(ok)
	}
	fmt.Printf("apload: %d ok, %d failed in %s (%.1f runs/s)\n",
		ok, failed, total.Round(time.Millisecond), throughput)
	fmt.Printf("apload: cache hits %d/%d (%.1f%%)\n", hits, ok, hitRate)
	if ok == 0 {
		// No completed runs: the percentile math below would index into
		// empty slices; the counts above already tell the story.
		fmt.Println("apload: no completed runs; skipping latency summary")
	} else {
		q := quantiles(latencies)
		qq := quantiles(queueWaits)
		qe := quantiles(executes)
		fmt.Printf("apload: submit->done latency p50=%s p90=%s p99=%s max=%s\n",
			q(0.50).Round(time.Millisecond), q(0.90).Round(time.Millisecond),
			q(0.99).Round(time.Millisecond), q(1.0).Round(time.Millisecond))
		fmt.Printf("apload: queue-wait          p50=%s p90=%s p99=%s max=%s\n",
			qq(0.50).Round(time.Millisecond), qq(0.90).Round(time.Millisecond),
			qq(0.99).Round(time.Millisecond), qq(1.0).Round(time.Millisecond))
		fmt.Printf("apload: execute             p50=%s p90=%s p99=%s max=%s\n",
			qe(0.50).Round(time.Millisecond), qe(0.90).Round(time.Millisecond),
			qe(0.99).Round(time.Millisecond), qe(1.0).Round(time.Millisecond))
	}
	if serverTotal := queueTotal + execTotal; serverTotal > 0 {
		fmt.Printf("apload: server wall split   queue-wait %.1f%%, execute %.1f%%\n",
			100*float64(queueTotal)/float64(serverTotal),
			100*float64(execTotal)/float64(serverTotal))
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d runs failed", failed, *n)
	}
	return nil
}
