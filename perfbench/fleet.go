package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"activepages/internal/httpmw"
	"activepages/internal/obs"
	"activepages/internal/serve"
)

// fleetShards is how many apserved shards the router spawns in-process.
const fleetShards = 3

// fleetProc is one `aprouted -spawn 3` child serving on a loopback port,
// and the benchmark's HTTP client to it.
type fleetProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the child has been waited for
	log    *os.File
}

// newClient is the load generator's client: at most conns connections to
// the router, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// bootFleet starts the router on a free loopback port and waits until it
// reports a healthy backend. The port is probed free and then handed to
// the child, so a rare clash is retried on another port.
func bootFleet(ctx context.Context, e *env, conns int) (*fleetProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, err := startFleet(ctx, e, conns)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func startFleet(ctx context.Context, e *env, conns int) (*fleetProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.out, "logs"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.out, "logs", "aprouted.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.aprouted, "-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-spawn", strconv.Itoa(fleetShards), "-loglevel", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	f := &fleetProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port),
		client: newClient(conns), exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(f.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/healthz", nil)
		if resp, err := f.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		select {
		case <-f.exited:
			f.stop()
			return nil, fmt.Errorf("aprouted exited during boot (see %s)", logf.Name())
		case <-ctx.Done():
			f.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("aprouted did not become healthy within 30s")
		}
	}
}

// stop terminates the child — SIGTERM, then SIGKILL after a grace period
// — waits for it, and returns its peak resident set in MiB. Safe to call
// more than once.
func (f *fleetProc) stop() float64 {
	select {
	case <-f.exited:
	default:
		f.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-f.exited:
		case <-time.After(15 * time.Second):
			f.cmd.Process.Kill()
			<-f.exited
		}
	}
	f.client.CloseIdleConnections()
	f.log.Close()
	return maxRSSMB(f.cmd.ProcessState)
}

// runView is the slice of the daemon's run JSON the benchmark checks.
type runView struct {
	ID        string        `json:"id"`
	State     string        `json:"state"`
	Error     string        `json:"error"`
	Request   serve.Request `json:"request"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started"`
	Finished  *time.Time    `json:"finished"`
}

// submitRetries bounds how often a refused (503) or unreachable
// submission is re-sent before it counts as failed.
const submitRetries = 3

// submit POSTs one spec, re-sending a refused submission, and checks the
// reply names the spec that was sent. It returns the run view and the
// X-AP-Cache verdict (hit, miss or dedup).
func (f *fleetProc) submit(ctx context.Context, p planned, rid string) (runView, string, error) {
	var lastErr error
	for attempt := 0; attempt <= submitRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 20 * time.Millisecond)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/api/v1/runs", bytes.NewReader(p.body))
		if err != nil {
			return runView{}, "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(httpmw.RequestIDHeader, rid)
		resp, err := f.client.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var v runView
			if err := json.Unmarshal(data, &v); err != nil {
				return runView{}, "", fmt.Errorf("submit %s: bad reply: %w", rid, err)
			}
			// A deduplicated submission is answered with the in-flight run of
			// an equivalent spec, so the reply is checked up to SpecKey.
			if serve.SpecKey(v.Request) != serve.SpecKey(p.req) {
				return v, "", fmt.Errorf("submit %s: reply names %q, sent %q", rid, specKey(v.Request), specKey(p.req))
			}
			cache := resp.Header.Get(serve.CacheResultHeader)
			if cache == "hit" && v.State != string(serve.StateDone) {
				return v, cache, fmt.Errorf("submit %s: cache hit in state %q", rid, v.State)
			}
			return v, cache, nil
		case http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("submit %s: refused: %s", rid, strings.TrimSpace(string(data)))
		default:
			return runView{}, "", fmt.Errorf("submit %s: HTTP %d: %s", rid, resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
	return runView{}, "", lastErr
}

func (f *fleetProc) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// missPoll is how often a cold run's state is polled. Its latency comes
// from the daemon's own finished stamp, so the interval only sets how soon
// the benchmark learns of it.
const missPoll = 20 * time.Millisecond

// await polls a run until it is done, and fails if it failed or did not
// finish within a minute.
func (f *fleetProc) await(ctx context.Context, id string) (runView, error) {
	deadline := time.Now().Add(time.Minute)
	for {
		var v runView
		if err := f.getJSON(ctx, "/api/v1/runs/"+id, &v); err != nil {
			return v, err
		}
		switch v.State {
		case string(serve.StateDone):
			if v.Started == nil || v.Finished == nil {
				return v, fmt.Errorf("run %s done without lifecycle stamps", id)
			}
			return v, nil
		case string(serve.StateFailed):
			return v, fmt.Errorf("run %s failed: %s", id, v.Error)
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("run %s not done after a minute", id)
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(missPoll):
		}
	}
}

// verifyOutput checks a done run's output artifact against the batch
// apbench digest. The artifact's ETag is its sha256, so a conditional GET
// that answers 304 proves the bytes match without transferring them.
func (f *fleetProc) verifyOutput(ctx context.Context, id, want string) error {
	if want == "" {
		return fmt.Errorf("run %s: no reference digest for its spec", id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/api/v1/runs/"+id+"/output", nil)
	if err != nil {
		return err
	}
	req.Header.Set("If-None-Match", `"`+want+`"`)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil
	case http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return fmt.Errorf("run %s: output sha256 %s, batch apbench gives %s", id, sha(body)[:12], want[:12])
	default:
		return fmt.Errorf("run %s output: HTTP %d", id, resp.StatusCode)
	}
}

// coldRun is one run that had to simulate: a warm-up run or a fresh spec.
type coldRun struct {
	latency   time.Duration // client due/submit time -> daemon finished stamp
	queueWait time.Duration // daemon submitted -> started
	runWall   time.Duration // daemon started -> finished
}

func coldFrom(v runView, from time.Time) coldRun {
	return coldRun{
		latency:   v.Finished.Sub(from.Round(0)),
		queueWait: v.Started.Sub(v.Submitted),
		runWall:   v.Finished.Sub(*v.Started),
	}
}

// warm submits the hot specs one at a time to a fresh fleet, waiting for
// each run and verifying its artifact before the next, so every warm-up
// run is timed on an otherwise idle fleet. It returns the cold runs and
// how many failed.
func (f *fleetProc) warm(ctx context.Context, digests map[string]string, rec *recorder) ([]coldRun, int) {
	var cold []coldRun
	failed := 0
	for i, r := range hotSpecs() {
		at := time.Now()
		v, _, err := f.submit(ctx, planned{req: r, body: mustJSON(r)}, fmt.Sprintf("warm-%02d", i))
		if err == nil {
			v, err = f.await(ctx, v.ID)
		}
		if err == nil {
			err = f.verifyOutput(ctx, v.ID, digests[specKey(r)])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			failed++
			continue
		}
		c := coldFrom(v, at)
		cold = append(cold, c)
		rec.add(span{Name: "warm " + specKey(r), Cat: "cold", TID: tidMiss, Start: at, Dur: c.latency,
			Args: map[string]any{"run": v.ID}})
	}
	return cold, failed
}

// verifyHot re-submits every hot spec (each a cache hit) and checks the
// artifact the cache serves, once the measured phase is over.
func (f *fleetProc) verifyHot(ctx context.Context, digests map[string]string) int {
	failed := 0
	for i, r := range hotSpecs() {
		v, _, err := f.submit(ctx, planned{req: r, body: mustJSON(r)}, fmt.Sprintf("check-%02d", i))
		if err == nil {
			err = f.verifyOutput(ctx, v.ID, digests[specKey(r)])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			failed++
		}
	}
	return failed
}

// outcome is one request of an open-loop schedule.
type outcome struct {
	due     time.Time
	lag     time.Duration // how late the generator issued it
	latency time.Duration // response end - due
	cache   string
	fresh   bool
	err     error
	cold    coldRun // fresh specs: the run's lifecycle
}

// openLoop issues plan at a fixed rate regardless of how fast replies
// come back: a dispatcher hands request i to the connection pool at its
// due time start + i/rate, and conns workers, one per connection, send
// them. Latency is measured from the due time, so a stall that delays
// later requests is charged to them. Fresh specs are followed until their
// run is done and their artifact verified.
func (f *fleetProc) openLoop(ctx context.Context, plan []planned, rate float64, conns int,
	digests map[string]string, rec *recorder, tag string) []outcome {
	out := make([]outcome, len(plan))
	ch := make(chan int, len(plan)) // sized to the number of sends: the dispatcher never blocks
	interval := time.Duration(float64(time.Second) / rate)
	var workers, misses sync.WaitGroup
	for c := 0; c < conns; c++ {
		workers.Add(1)
		go func(c int) {
			defer workers.Done()
			for i := range ch {
				o := &out[i]
				rid := fmt.Sprintf("%s-%06d", tag, i)
				sent := time.Now()
				v, cache, err := f.submit(ctx, plan[i], rid)
				end := time.Now()
				o.latency, o.cache, o.err, o.fresh = end.Sub(o.due), cache, err, plan[i].fresh
				if rec != nil { // building the span costs more than the nil check inside add
					rec.add(span{Name: "POST /api/v1/runs", Cat: "request", TID: tidLoadGen + c, Start: sent,
						Dur: end.Sub(sent), Args: map[string]any{"request_id": rid, "cache": cache,
							"spec": specKey(plan[i].req), "since_due_us": sent.Sub(o.due).Microseconds()}})
				}
				if err == nil && plan[i].fresh {
					misses.Add(1)
					go func() {
						defer misses.Done()
						f.followMiss(ctx, o, v.ID, digests[specKey(plan[i].req)], rec)
					}()
				}
			}
		}(c)
	}
	start := time.Now()
	for i := range plan {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		out[i].due = due
		out[i].lag = time.Since(due)
		ch <- i
	}
	close(ch)
	workers.Wait()
	misses.Wait()
	return out
}

func (f *fleetProc) followMiss(ctx context.Context, o *outcome, id, want string, rec *recorder) {
	v, err := f.await(ctx, id)
	if err == nil {
		err = f.verifyOutput(ctx, id, want)
	}
	if err != nil {
		o.err = err
		return
	}
	o.cold = coldFrom(v, o.due)
	rec.add(span{Name: "fresh run " + id, Cat: "cold", TID: tidMiss, Start: o.due, Dur: o.cold.latency,
		Args: map[string]any{"queue_wait_ms": ms(o.cold.queueWait), "run_wall_ms": ms(o.cold.runWall)}})
}

// scrape is the router's federated metrics at one instant.
type scrape struct {
	Router obs.Snapshot `json:"router"`
	Fleet  obs.Snapshot `json:"fleet"`
}

func (f *fleetProc) scrape(ctx context.Context) (scrape, error) {
	var s scrape
	err := f.getJSON(ctx, "/api/v1/metricsz", &s)
	return s, err
}

// delta is after minus before for every summed key; "_max" gauges keep
// their latest reading.
func delta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{}
	for k, v := range after {
		if strings.HasSuffix(k, "_max") {
			d[k] = v
			continue
		}
		d[k] = v - before[k]
	}
	return d
}

// histBuckets extracts histogram name's log2 buckets from a snapshot.
func histBuckets(s obs.Snapshot, name string) map[int]float64 {
	prefix := name + ".h.b"
	b := map[int]float64{}
	for k, v := range s {
		if i, err := strconv.Atoi(strings.TrimPrefix(k, prefix)); err == nil && strings.HasPrefix(k, prefix) {
			b[i] = float64(v)
		}
	}
	return b
}
