package run

import (
	"sync"
	"testing"
	"time"
)

// TestProgressCountsThroughMap checks Map drives the tracker: the total
// grows on entry, each completed point increments done, and the OnPoint
// events carry monotonically nondecreasing done/total pairs with done
// never exceeding total.
func TestProgressCountsThroughMap(t *testing.T) {
	var mu sync.Mutex
	var events []PointEvent
	prog := &Progress{OnPoint: func(ev PointEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	r := &Runner{Jobs: 4, Progress: prog}
	if _, err := Map(r, 10, func(i int) (int, error) { return i * i, nil }); err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.PointsTotal != 10 || snap.PointsDone != 10 {
		t.Fatalf("points = %d/%d, want 10/10", snap.PointsDone, snap.PointsTotal)
	}
	mu.Lock()
	got := append([]PointEvent(nil), events...)
	mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("OnPoint fired %d times, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Done != int64(i+1) {
			t.Errorf("event %d done = %d, want %d (monotone nondecreasing)", i, ev.Done, i+1)
		}
		if ev.Done > ev.Total {
			t.Errorf("event %d done %d exceeds total %d", i, ev.Done, ev.Total)
		}
	}

	// A second Map on the same runner grows the total: multi-sweep
	// experiments schedule points incrementally.
	if _, err := Map(r, 5, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	snap = prog.Snapshot()
	if snap.PointsTotal != 15 || snap.PointsDone != 15 {
		t.Fatalf("after second sweep points = %d/%d, want 15/15", snap.PointsDone, snap.PointsTotal)
	}
}

// TestProgressNilSafe checks the batch-mode default — no tracker — costs
// nothing and panics nowhere, on nil runners and nil trackers alike.
func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.SetLabel("x")
	p.expectPoints(3)
	p.pointDone(time.Time{}, time.Second, nil)
	p.measureDone(MeasureEvent{})
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Fatalf("nil tracker snapshot = %+v, want zero", s)
	}
	var r *Runner
	if r.ProgressTracker() != nil {
		t.Fatal("nil runner should have no tracker")
	}
	r.NoteMeasure(MeasureEvent{Benchmark: "array", Pages: 1, Backend: "radram"})
	r2 := &Runner{Jobs: 2}
	if _, err := Map(r2, 4, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestProgressMeasureTallies checks checkpoint outcome accounting: cold
// runs count once each, branches count as hit+branch, and uncached
// measurements touch no checkpoint counter.
func TestProgressMeasureTallies(t *testing.T) {
	prog := &Progress{}
	r := &Runner{Progress: prog}
	// Cached, both machines cold.
	r.NoteMeasure(MeasureEvent{Benchmark: "array", Pages: 2, Backend: "radram",
		ConvCheckpoint: "cold", APCheckpoint: "cold", Wall: time.Second})
	// Cached, conventional cold, Active-Page branched.
	r.NoteMeasure(MeasureEvent{Benchmark: "database", Pages: 4, Backend: "radram",
		ConvCheckpoint: "cold", APCheckpoint: "branch", Wall: time.Second})
	// Uncached.
	r.NoteMeasure(MeasureEvent{Benchmark: "median", Pages: 8, Backend: "simdram", Wall: time.Second})
	snap := prog.Snapshot()
	if snap.Measures != 3 {
		t.Fatalf("measures = %d, want 3", snap.Measures)
	}
	if snap.CheckpointCold != 3 {
		t.Errorf("cold = %d, want 3", snap.CheckpointCold)
	}
	if snap.CheckpointHit != 1 || snap.CheckpointBranch != 1 {
		t.Errorf("hit/branch = %d/%d, want 1/1", snap.CheckpointHit, snap.CheckpointBranch)
	}
	if snap.LastBenchmark != "median" || snap.LastPages != 8 {
		t.Errorf("last = %s/%g, want median/8", snap.LastBenchmark, snap.LastPages)
	}
}

// TestProgressETA checks the estimate: remaining points at the observed
// mean per-point cost, divided by the pool width, with zero before any
// point completes and zero once nothing remains.
func TestProgressETA(t *testing.T) {
	s := ProgressSnapshot{PointsTotal: 10}
	if s.ETA(4) != 0 {
		t.Error("ETA with nothing done should be 0")
	}
	s.PointsDone = 2
	s.PointWallMS = 2000 // 1 s per point observed
	if got, want := s.ETA(1), 8*time.Second; got != want {
		t.Errorf("ETA(1) = %s, want %s", got, want)
	}
	if got, want := s.ETA(4), 2*time.Second; got != want {
		t.Errorf("ETA(4) = %s, want %s", got, want)
	}
	if got, want := s.ETA(0), 8*time.Second; got != want {
		t.Errorf("ETA(0) = %s, want %s (clamped to one worker)", got, want)
	}
	s.PointsDone = 10
	if s.ETA(4) != 0 {
		t.Error("ETA with nothing remaining should be 0")
	}
}

// TestProgressLabel checks SetLabel records and notifies.
func TestProgressLabel(t *testing.T) {
	var got string
	prog := &Progress{OnLabel: func(l string) { got = l }}
	prog.SetLabel("fig3")
	if prog.Snapshot().Label != "fig3" || got != "fig3" {
		t.Fatalf("label = %q / callback %q, want fig3", prog.Snapshot().Label, got)
	}
}
