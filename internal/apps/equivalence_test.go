package apps_test

import (
	"fmt"
	"maps"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/apps/database"
	"activepages/internal/apps/lcs"
	"activepages/internal/apps/matrix"
	"activepages/internal/apps/median"
	"activepages/internal/apps/mpeg"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// measureMode is apps.Measure with every fast path switched off when
// reference is set: each hierarchy's Reference switch makes its CPU issue
// one scalar access per element and the hierarchy probe every line through
// the full chain. A non-nil tr additionally wires simulated-time tracing
// through both machines.
func measureMode(t *testing.T, b apps.Benchmark, cfg radram.Config, pages float64, reference bool, tr *obs.Tracer) (apps.Measurement, obs.Snapshot, memsys.FoldStats) {
	t.Helper()
	conv, rad, err := run.NewPair(cfg)
	if err != nil {
		t.Fatalf("%s: build pair: %v", b.Name(), err)
	}
	for _, m := range []*run.Machine{conv, rad} {
		m.Hier.Reference = reference
		if tr != nil {
			m.EnableTracing(tr)
		}
	}
	if err := b.Run(conv.Machine, pages); err != nil {
		t.Fatalf("%s (conventional, ref=%v): %v", b.Name(), reference, err)
	}
	if err := b.Run(rad.Machine, pages); err != nil {
		t.Fatalf("%s (radram, ref=%v): %v", b.Name(), reference, err)
	}
	meas := apps.Measurement{
		Benchmark:  b.Name(),
		Pages:      pages,
		ConvTime:   conv.Elapsed(),
		RadTime:    rad.Elapsed(),
		NonOverlap: rad.CPU.Stats.NonOverlapFraction(),
	}
	// Diagnostic counters (fold engagement, trace drops) record which
	// simulation pipeline ran and legitimately differ across modes; the
	// equivalence guarantee covers everything else.
	snap := conv.Snapshot().WithPrefix("conv.")
	snap.Merge(rad.Snapshot().WithPrefix("rad."))
	return meas, snap.WithoutDiag(), conv.Hier.Folds
}

// TestGoldenEquivalence is the experiment-level gate for the batched fast
// paths: every study must produce bit-identical times, derived metrics,
// and the complete counter snapshot whether the simulator runs through
// the batched pipeline or the scalar reference pipeline.
func TestGoldenEquivalence(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	benchmarks := []apps.Benchmark{
		array.Benchmark{},
		database.Benchmark{},
		median.Benchmark{},
		lcs.Benchmark{},
		matrix.Benchmark{Variant: matrix.Simplex},
		matrix.Benchmark{Variant: matrix.Boeing},
		mpeg.Benchmark{},
	}
	for _, b := range benchmarks {
		b := b
		// Every benchmark runs at a small point; array also runs at a size
		// where the conventional loops are long enough for stream folding to
		// fast-forward whole periods, gating the folded path against the
		// scalar and reference pipelines.
		points := []float64{2}
		if b.Name() == "array" {
			points = append(points, 64)
		}
		for _, pages := range points {
			pages := pages
			t.Run(fmt.Sprintf("%s/pages%g", b.Name(), pages), func(t *testing.T) {
				t.Parallel()
				fastM, fastS, fastF := measureMode(t, b, cfg, pages, false, nil)
				refM, refS, refF := measureMode(t, b, cfg, pages, true, nil)
				if pages > 2 {
					if fastF.Folded == 0 {
						t.Errorf("stream folding never engaged: %+v", fastF)
					}
				}
				if refF.Folded != 0 {
					t.Errorf("reference pipeline folded a stream: %+v", refF)
				}
				if fastM != refM {
					t.Errorf("measurement diverged:\n fast %+v\n  ref %+v", fastM, refM)
				}
				if !maps.Equal(fastS, refS) {
					for _, name := range refS.Names() {
						if fastS[name] != refS[name] {
							t.Errorf("counter %s = %d, want %d", name, fastS[name], refS[name])
						}
					}
					for _, name := range fastS.Names() {
						if _, ok := refS[name]; !ok {
							t.Errorf("counter %s only present in fast snapshot", name)
						}
					}
				}

				// Tracing must be pure observation: a traced run's measurement
				// and complete counter snapshot are byte-identical to the
				// untraced run's, while the tracer actually captured events.
				// Tracing also disables folding, so at the folding point this
				// additionally proves the folded and scalar stream pipelines
				// agree on every observable.
				tr := obs.NewTracer(1 << 16)
				tracedM, tracedS, tracedF := measureMode(t, b, cfg, pages, false, tr)
				if tracedF.Folded != 0 {
					t.Errorf("traced pipeline folded a stream: %+v", tracedF)
				}
				if tracedM != fastM {
					t.Errorf("tracing changed measurement:\n traced %+v\n untraced %+v", tracedM, fastM)
				}
				if !maps.Equal(tracedS, fastS) {
					for _, name := range fastS.Names() {
						if tracedS[name] != fastS[name] {
							t.Errorf("tracing changed counter %s: %d, want %d", name, tracedS[name], fastS[name])
						}
					}
					for _, name := range tracedS.Names() {
						if _, ok := fastS[name]; !ok {
							t.Errorf("counter %s only present in traced snapshot", name)
						}
					}
				}
				if tr.Len() == 0 {
					t.Error("traced run captured no events")
				}
			})
		}
	}
}
