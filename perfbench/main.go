// Command perfbench is the repository's benchmark: it builds nothing
// itself (perfbench/run.sh builds apbench, aprouted and this program into
// .bench_build), runs one workload against the built binaries, checks
// every output for correctness, and prints the result as one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	sweep-quick  apbench -experiment all -quick -jobs 1, as child processes
//	sweep-full   apbench -experiment all -jobs 1, as child processes
//	fleet-hot    aprouted -spawn 3 under an open-loop rate ladder of cache hits
//
// With --trace 0 the end-to-end metrics are measured with nothing traced.
// With --trace 1 the per-layer metrics are measured instead: an
// in-process sweep with run.Progress spans, probes through each layer's
// public calls, and a fleet segment with one client span per request and
// /api/v1/metricsz scrapes, including a churn of fresh specs among hits. The spans are written as Chrome trace JSON to
// .bench_build/traces once the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runState carries one invocation's settings and accumulates its report.
type runState struct {
	e        *env
	workload string
	seed     int64
	budget   time.Duration
	conns    int
	res      result
	notes    []string
}

func (r *runState) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runState) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records one attempted operation and whether it failed.
func (r *runState) op(failed bool) {
	n := 0
	if failed {
		n = 1
	}
	r.ops(1, n)
}

// ops records n attempted operations of which failed failed.
func (r *runState) ops(n, failed int) {
	r.res.Attempted += n
	r.res.Failed += failed
}

// setTiming reports a latency sample set: the median under p50Name and
// the tail under tailName (either may be empty), and notes the sample
// count, tail percentile and p99.
func (r *runState) setTiming(what, p50Name, tailName string, xs []float64) {
	t := summarize(xs)
	if p50Name != "" {
		r.set(p50Name, t.P50, "ms")
	}
	if tailName != "" {
		r.set(tailName, t.Tail, "ms")
	}
	tail := fmt.Sprintf("p%g", t.TailP)
	if !t.TailOK {
		tail = fmt.Sprintf("max, fewer than %d samples beyond p%d", minBeyond, tailPct)
	}
	r.note("%s: n=%d p50=%.4f ms tail(%s)=%.4f ms p99=%.4f ms", what, t.N, t.P50, tail, t.Tail, t.P99)
}

// setRequests reports the latencies of an open-loop schedule's hits, in
// schedule order: the median under p50_ms and the windowed tail under
// tail_ms.
func (r *runState) setRequests(what string, xs []float64) {
	r.setTiming(what, "p50_ms", "", xs)
	tail, windows := windowTail(xs)
	r.set("tail_ms", tail, "ms")
	r.note("tail_ms: median p%d of %d windows of %d requests = %.4f ms", tailPct, windows, tailWindow, tail)
}

// noteCold reports the operations that had to simulate, in the report
// only: their costs span two orders of magnitude by spec, so their mean
// and median swung by up to 29% between runs of one workload, more than a
// regression bound can take.
func (r *runState) noteCold(what string, xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	r.note("%s: mean=%.4f ms", what, ratio(sum, float64(len(xs))))
	r.setTiming(what, "", "", xs)
}

var workloads = map[string]func(context.Context, *runState) error{
	"sweep-quick": func(ctx context.Context, r *runState) error { return sweepWorkload(ctx, r, true) },
	"sweep-full":  func(ctx context.Context, r *runState) error { return sweepWorkload(ctx, r, false) },
	"fleet-hot":   fleetHot,
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload = flag.String("workload", "", "workload: sweep-quick, sweep-full or fleet-hot")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "how long the measured phase runs")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
		root     = flag.String("root", ".", "repository root")
		genRefsF = flag.Bool("gen-refs", false, "regenerate perfbench/ref from batch apbench runs and exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(*root)
	if err != nil {
		return err
	}
	if *genRefsF {
		return genRefs(ctx, e)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	r := &runState{e: e, workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		conns: runtime.NumCPU(), res: result{Correct: true, Metrics: map[string]metric{}}}
	if *trace == 1 {
		err = traced(ctx, r)
	} else {
		err = fn(ctx, r)
	}
	if err != nil {
		return err
	}
	r.res.Correct = r.res.Failed == 0
	return r.print(*trace == 1)
}

// print writes the human-readable report, provenance and the result line.
func (r *runState) print(traced bool) error {
	prov := provenance(r.e.root)
	prov["workload"], prov["seed"], prov["connections"] = r.workload, r.seed, r.conns
	prov["trace"], prov["seconds"] = traced, r.budget.Seconds()
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: provenance %s\n", pb)
	for _, n := range r.notes {
		fmt.Printf("perfbench: %s\n", n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("perfbench: %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("perfbench: %d attempted, %d failed\n", r.res.Attempted, r.res.Failed)
	b, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// provenance records where and on what a report was measured.
func provenance(root string) map[string]any {
	host, _ := os.Hostname()
	p := map[string]any{
		"host": host, "cpu": cpuModel(), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	rev, dirty := gitRevision(root)
	p["git_revision"], p["git_dirty"] = rev, dirty
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes the run's spans once it has ended.
func (r *runState) writeTrace(rec *recorder) error {
	dir := filepath.Join(r.e.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := rec.writeChrome(p); err != nil {
		return err
	}
	r.note("trace: %d spans written to %s", rec.len(), p)
	return nil
}
