package run

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"activepages/internal/obs"
)

// Runner executes independent simulation points. The zero value and a nil
// *Runner both run serially with no metrics collection, so library code
// can thread a runner through unconditionally.
type Runner struct {
	// Jobs is the worker-pool width. Values <= 1 run serially.
	Jobs int
	// Metrics, when set, accumulates the merged metrics snapshot of every
	// observed run.
	Metrics *Collector
	// Context, when set, cancels a sweep: Map checks it before dispatching
	// each index and Simulate before each machine run, so an abandoned run
	// stops at the next machine run instead of simulating to completion.
	// A machine run already in progress finishes first.
	Context context.Context
	// Checkpoints, when set, lets Simulate reuse the final state of an
	// identical earlier machine run (see CheckpointCache). Nil disables
	// checkpoint/branch: every run simulates from cold.
	Checkpoints *CheckpointCache
	// Progress, when set, tracks the dispatch live: Map reports scheduled
	// and completed points with wall-clock timing, and the measurement
	// layer reports per-benchmark checkpoint outcomes. Nil (the batch-mode
	// default) disables all tracking — the runner then never reads the
	// wall clock.
	Progress *Progress
}

// Serial returns a single-worker runner.
func Serial() *Runner { return &Runner{Jobs: 1} }

// Parallel returns a runner with one worker per CPU.
func Parallel() *Runner { return &Runner{Jobs: runtime.NumCPU()} }

// WithMetrics attaches a fresh collector and returns the runner.
func (r *Runner) WithMetrics() *Runner {
	r.Metrics = NewCollector()
	return r
}

// jobs reports the effective worker count, nil-safe.
func (r *Runner) jobs() int {
	if r == nil || r.Jobs <= 1 {
		return 1
	}
	return r.Jobs
}

// interrupted reports the runner's cancellation state, nil-safe.
func (r *Runner) interrupted() error {
	if r == nil || r.Context == nil {
		return nil
	}
	return r.Context.Err()
}

// Collect merges a run's metrics snapshot into the runner's collector, if
// one is attached. It is safe from worker goroutines and on a nil runner.
func (r *Runner) Collect(s obs.Snapshot) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.Add(s)
}

// CollectGroup merges a run's metrics snapshot into both the collector's
// overall snapshot and its per-group snapshot for key (conventionally the
// benchmark name), so a sweep can be attributed per benchmark afterwards.
// It is safe from worker goroutines and on a nil runner.
func (r *Runner) CollectGroup(key string, s obs.Snapshot) {
	if r == nil || r.Metrics == nil {
		return
	}
	r.Metrics.AddGroup(key, s)
}

// PanicError is a crashed run converted into a structured error: the
// sweep survives, reports which point died, and preserves the stack.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error summarizes the crash.
func (e *PanicError) Error() string {
	return fmt.Sprintf("run %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map executes fn(0) … fn(n-1) across the runner's worker pool and
// returns the results in index order. Every invocation is independent —
// fn must build its own machine instances — so the merged output is
// byte-identical whatever the worker count. A panic inside fn is
// recovered into a *PanicError instead of killing the sweep. If any
// point fails, Map returns the error of the lowest failing index
// (deterministic regardless of scheduling) alongside the partial results.
//
// When the runner carries a Context, each point checks it before
// starting: after cancellation the remaining points fail immediately
// with the context's error, and a point already running stops at its
// next Simulate call, so an abandoned sweep ends between machine runs.
func Map[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	prog := r.ProgressTracker()
	prog.expectPoints(n)

	exec := func(i int) {
		if err := r.interrupted(); err != nil {
			errs[i] = fmt.Errorf("run canceled: %w", err)
			return
		}
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
			}
		}()
		results[i], errs[i] = fn(i)
	}
	call := exec
	if prog != nil {
		// Wrap rather than inline the timing so the untracked path never
		// touches the wall clock.
		call = func(i int) {
			start := time.Now()
			exec(i)
			prog.pointDone(start, time.Since(start), errs[i])
		}
	}

	if workers := min(r.jobs(), n); workers <= 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					call(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			indices <- i
		}
		close(indices)
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("run %d/%d: %w", i, n, err)
		}
	}
	return results, nil
}

// Collector is a concurrency-safe accumulator of metrics snapshots: one
// merged snapshot, optional per-group merged snapshots, plus a count of
// the runs that contributed. Snapshot merging is associative and
// commutative (see obs), so the totals are independent of worker
// scheduling.
type Collector struct {
	mu     sync.Mutex
	snap   obs.Snapshot
	groups map[string]obs.Snapshot
	runs   int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{snap: obs.Snapshot{}}
}

// Add merges one run's snapshot.
func (c *Collector) Add(s obs.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap.Merge(s)
	c.runs++
}

// AddGroup merges one run's snapshot into both the overall snapshot and
// the group keyed by key.
func (c *Collector) AddGroup(key string, s obs.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap.Merge(s)
	c.runs++
	if c.groups == nil {
		c.groups = make(map[string]obs.Snapshot)
	}
	g := c.groups[key]
	if g == nil {
		g = obs.Snapshot{}
		c.groups[key] = g
	}
	g.Merge(s)
}

// Groups returns a copy of the per-group merged snapshots. Groups exist
// only for runs collected through AddGroup/CollectGroup.
func (c *Collector) Groups() map[string]obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]obs.Snapshot, len(c.groups))
	for k, g := range c.groups {
		cp := make(obs.Snapshot, len(g))
		cp.Merge(g)
		out[k] = cp
	}
	return out
}

// Runs reports how many snapshots have been merged.
func (c *Collector) Runs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Snapshot returns a copy of the merged snapshot with a "runs" metric
// recording how many simulations contributed.
func (c *Collector) Snapshot() obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(obs.Snapshot, len(c.snap)+1)
	out.Merge(c.snap)
	out["runs"] = c.runs
	return out
}
