package run

import (
	"sync"
	"time"
)

// PointEvent describes one scheduled sweep point completing: its
// completion index over the total scheduled so far, wall-clock timing, and
// whether it failed. Points are the unit Map dispatches; the total grows
// as a multi-sweep experiment enters each new sweep.
type PointEvent struct {
	// Done is this point's completion index (1-based) and Total the points
	// scheduled so far — Done <= Total always.
	Done, Total int64
	// Start and Wall are the point's wall-clock execution window.
	Start time.Time
	Wall  time.Duration
	Err   error
}

// MeasureEvent describes one benchmark measurement completing inside a
// sweep point: which kernel at which problem size, on which backend, how
// each machine of the pair was satisfied (checkpoint outcome), and the
// measurement's wall-clock cost.
type MeasureEvent struct {
	Benchmark string
	Pages     float64
	Backend   string
	// ConvCheckpoint and APCheckpoint are each machine's
	// Outcome.Checkpoint: "cold", "branch", or "" when the runner carries
	// no checkpoint cache or the machine never ran.
	ConvCheckpoint string
	APCheckpoint   string
	Start          time.Time
	Wall           time.Duration
	Err            error
}

// ProgressSnapshot is a consistent copy of a Progress tracker's counters,
// safe to marshal. All wall durations are in milliseconds.
type ProgressSnapshot struct {
	// Label names the experiment currently dispatching (the last SetLabel).
	Label string `json:"label,omitempty"`
	// PointsTotal counts the sweep points scheduled so far and PointsDone
	// how many have completed; the total grows as new sweeps start, so
	// PointsDone never exceeds it.
	PointsTotal int64 `json:"points_total"`
	PointsDone  int64 `json:"points_done"`
	// Measures counts completed benchmark measurements (a point may hold
	// zero or several).
	Measures int64 `json:"measures"`
	// CheckpointCold/Hit/Branch tally how the measurement machine runs
	// were satisfied (at most two machine runs per measure; zero without a
	// cache).
	CheckpointCold   int64 `json:"checkpoint_cold"`
	CheckpointHit    int64 `json:"checkpoint_hit"`
	CheckpointBranch int64 `json:"checkpoint_branch"`
	// LastBenchmark and LastPages identify the most recent measurement.
	LastBenchmark string  `json:"last_benchmark,omitempty"`
	LastPages     float64 `json:"last_pages,omitempty"`
	// LastPointMS is the wall duration of the most recent completed point
	// and PointWallMS the sum over all completed points (worker-parallel
	// durations sum, so this exceeds elapsed wall time under parallelism).
	LastPointMS int64 `json:"last_point_ms"`
	PointWallMS int64 `json:"point_wall_ms"`
}

// Remaining reports the scheduled points not yet completed.
func (s ProgressSnapshot) Remaining() int64 { return s.PointsTotal - s.PointsDone }

// ETA estimates the wall time to finish the scheduled points, assuming the
// observed mean per-point cost and the given worker-pool width. Zero when
// nothing has completed yet (no basis for an estimate) or nothing remains.
// The estimate ignores points future sweeps will schedule, so it is a
// floor for multi-sweep experiments.
func (s ProgressSnapshot) ETA(jobs int) time.Duration {
	if s.PointsDone == 0 || s.Remaining() <= 0 {
		return 0
	}
	if jobs < 1 {
		jobs = 1
	}
	avg := time.Duration(s.PointWallMS/s.PointsDone) * time.Millisecond
	return avg * time.Duration(s.Remaining()) / time.Duration(jobs)
}

// Progress tracks a run's sweep execution live: how many points are
// scheduled and done, how measurements were satisfied, and per-point wall
// costs. Attach one to a Runner to observe an in-flight dispatch; a nil
// *Progress (the batch-mode default) disables all tracking, and the
// runner's hot path then never reads the wall clock.
//
// The callback fields are read without synchronization and must be set
// before the runner starts. Callbacks are invoked outside the tracker's
// lock, from worker goroutines, so they must be safe for concurrent use.
// OnPoint calls are serialized and arrive in completion order.
type Progress struct {
	// OnPoint, when set, is invoked after each scheduled point completes.
	OnPoint func(PointEvent)
	// OnMeasure, when set, is invoked after each benchmark measurement.
	OnMeasure func(MeasureEvent)
	// OnLabel, when set, is invoked when the dispatch enters a new
	// experiment.
	OnLabel func(label string)

	mu   sync.Mutex
	snap ProgressSnapshot
	// pointMu is held across a point's count and its OnPoint call, so
	// events carry done counts in increasing order.
	pointMu sync.Mutex
}

// SetLabel records the experiment now dispatching. Nil-safe.
func (p *Progress) SetLabel(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Label = label
	p.mu.Unlock()
	if p.OnLabel != nil {
		p.OnLabel(label)
	}
}

// expectPoints grows the scheduled-point total by n (called by Map on
// entry). Nil-safe.
func (p *Progress) expectPoints(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.PointsTotal += int64(n)
	p.mu.Unlock()
}

// pointDone records one scheduled point completing and invokes OnPoint.
// Nil-safe.
func (p *Progress) pointDone(start time.Time, wall time.Duration, err error) {
	if p == nil {
		return
	}
	p.pointMu.Lock()
	defer p.pointMu.Unlock()
	p.mu.Lock()
	p.snap.PointsDone++
	p.snap.LastPointMS = wall.Milliseconds()
	p.snap.PointWallMS += wall.Milliseconds()
	ev := PointEvent{Done: p.snap.PointsDone, Total: p.snap.PointsTotal,
		Start: start, Wall: wall, Err: err}
	p.mu.Unlock()
	if p.OnPoint != nil {
		p.OnPoint(ev)
	}
}

// measureDone records one benchmark measurement completing and invokes
// OnMeasure. Nil-safe.
func (p *Progress) measureDone(ev MeasureEvent) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Measures++
	p.snap.LastBenchmark = ev.Benchmark
	p.snap.LastPages = ev.Pages
	for _, outcome := range []string{ev.ConvCheckpoint, ev.APCheckpoint} {
		switch outcome {
		case "cold":
			p.snap.CheckpointCold++
		case "branch":
			p.snap.CheckpointHit++
			p.snap.CheckpointBranch++
		}
	}
	p.mu.Unlock()
	if p.OnMeasure != nil {
		p.OnMeasure(ev)
	}
}

// Snapshot returns a consistent copy of the tracker's state. Nil-safe:
// a nil tracker yields the zero snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

// NoteMeasure reports one completed benchmark measurement to the runner's
// progress tracker, if any. Nil-safe on both the runner and its tracker,
// so the measurement layer calls it unconditionally.
func (r *Runner) NoteMeasure(ev MeasureEvent) { r.ProgressTracker().measureDone(ev) }

// ProgressTracker returns the runner's progress tracker, nil-safe: nil
// when the runner is nil or none is attached, and every *Progress method
// is in turn nil-safe.
func (r *Runner) ProgressTracker() *Progress {
	if r == nil {
		return nil
	}
	return r.Progress
}
