package main

import (
	"math"
	"testing"

	"activepages/internal/obs"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{
		{10000, true},
		{100, true}, // rank 90, 10 beyond
		{99, false}, // rank 90, 9 beyond: report the maximum
		{12, false},
		{0, false},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && p != tailPct) || (!ok && p != 100) {
			t.Errorf("tailPercentile(%d) = %g, %t; want ok=%t", c.n, p, ok, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d p%g leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
	// 99.9% of 10000 is exactly rank 9990: float error must not move it.
	if got := nearestRank(10000, 99.9); got != 9990 {
		t.Errorf("nearestRank(10000, 99.9) = %d, want 9990", got)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500.5 || s.Tail != 900 || !s.TailOK || s.P99 != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if xs[0] != 1 || xs[999] != 1000 {
		t.Error("summarize reordered its input")
	}
	small := summarize([]float64{3, 1, 2})
	if small.Tail != 3 || small.TailOK || small.P50 != 2 {
		t.Errorf("summarize of 3 samples = %+v, want the maximum as tail", small)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %g, want 0", got)
	}
	if got := ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(0, 0) = %g, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %g", got)
	}
	// A snapshot with no fold or checkpoint activity at all derives zero
	// shares, not NaN.
	m := sweepLayers(sweepTrace{snap: obs.Snapshot{"conv.mem.l1d.hits": 0}})
	for _, k := range []string{"memsys.fold_engaged_ratio", "memsys.fold_iter_share", "cache.l1d_hit_ratio",
		"cache.l2_hit_ratio", "dram.row_hit_ratio", "run.ckpt_branch_ratio.conv", "sim.host_ns_per_ref"} {
		if v := m[k]; v != 0 || math.IsNaN(v) {
			t.Errorf("%s = %g on an idle snapshot, want 0", k, v)
		}
	}
}

func TestSweepLayersSumAcrossMachines(t *testing.T) {
	s := obs.Snapshot{
		"conv.diag.checkpoint_branch": 169, "conv.diag.checkpoint_cold": 115,
		"conv.mem.diag.fold_engaged": 24, "conv.mem.diag.fold_streams": 30000, "smp.mem.diag.fold_streams": 3968,
		"conv.mem.diag.fold_folded_iters": 1, "conv.mem.diag.fold_scalar_iters": 3,
		"conv.mem.l1d.hits": 75, "rad.mem.l1d.misses": 25, "rad.mem.uncached_accesses": 100,
	}
	m := sweepLayers(sweepTrace{snap: s, wall: 1000})
	if got := m["run.ckpt_branch_ratio.conv"]; math.Abs(got-169.0/284) > 1e-12 {
		t.Errorf("conv branch ratio = %g", got)
	}
	if m["memsys.fold_streams"] != 33968 || m["memsys.fold_iter_share"] != 0.25 {
		t.Errorf("fold metrics = %g streams, %g share", m["memsys.fold_streams"], m["memsys.fold_iter_share"])
	}
	if m["cache.l1d_accesses"] != 100 || m["cache.l1d_hit_ratio"] != 0.75 || m["sim.host_ns_per_ref"] != 5 {
		t.Errorf("cache metrics = %v", m)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	if got := histQuantile(map[int]float64{}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g", got)
	}
	// Bucket 11 spans [1024, 2047] ps; the median of 10 samples there
	// lies halfway through it.
	got := histQuantile(map[int]float64{11: 10}, 0.5)
	if want := (1024 + 0.5*1023) / 1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("quantile = %g ns, want %g", got, want)
	}
	// The rank falls in the second bucket once the first is exhausted.
	if got := histQuantile(map[int]float64{11: 1, 21: 1}, 0.99); got < 1048.576 || got > 2097.151 {
		t.Errorf("p99 = %g ns, want inside bucket 21", got)
	}
}

func TestSnapshotDeltaAndBuckets(t *testing.T) {
	before := obs.Snapshot{"a.h.b3": 2, "a.h.count": 2, "q_max": 9}
	after := obs.Snapshot{"a.h.b3": 5, "a.h.b4": 1, "a.h.count": 6, "q_max": 4}
	d := delta(before, after)
	if d["a.h.b3"] != 3 || d["a.h.b4"] != 1 || d["q_max"] != 4 {
		t.Errorf("delta = %v", d)
	}
	b := histBuckets(d, "a")
	if len(b) != 2 || b[3] != 3 || b[4] != 1 {
		t.Errorf("buckets = %v", b)
	}
}

func TestWindowTailIgnoresAFewBadWindows(t *testing.T) {
	xs := make([]float64, 5*tailWindow)
	for i := range xs {
		xs[i] = float64(i%tailWindow) / 100 // each window's p90 is 8.99
	}
	for i := 0; i < tailWindow; i++ {
		xs[i] += 50 // one window stalled throughout
	}
	got, n := windowTail(xs)
	if n != 5 || got != 8.99 {
		t.Errorf("windowTail = %g over %d windows, want 8.99 over 5", got, n)
	}
	if overall := summarize(xs).Tail; overall <= got {
		t.Errorf("the overall p90 %g should feel the stalled window", overall)
	}
	if got, n := windowTail([]float64{1, 2, 3}); n != 0 || got != 3 {
		t.Errorf("windowTail of a short sample = %g over %d windows, want its max", got, n)
	}
}
