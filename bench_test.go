// Package activepages_test benchmarks the regeneration of every table and
// figure of the paper's evaluation. Each benchmark runs the corresponding
// experiment at a reduced problem-size axis and reports the headline
// metric the paper's artifact reports (speedups, correlations, stall
// percentages) via b.ReportMetric; `go run ./cmd/apbench` prints the full
// rows and series.
package activepages_test

import (
	"testing"

	"activepages/internal/apps"
	"activepages/internal/circuits"
	"activepages/internal/experiments"
	"activepages/internal/logic"
	"activepages/internal/model"
	"activepages/internal/run"
	"activepages/internal/sim"
)

// BenchmarkTable1Config builds the Table 1 reference machine description.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1(experiments.DefaultConfig()).String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Partitioning renders the application-partitioning table.
func BenchmarkTable2Partitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Synthesis synthesizes all seven application circuits.
func BenchmarkTable3Synthesis(b *testing.B) {
	var les int
	for i := 0; i < b.N; i++ {
		les = 0
		for _, d := range circuits.All() {
			les += logic.Synthesize(d).LEs
		}
	}
	b.ReportMetric(float64(les), "LEs-total")
}

// BenchmarkTable4Model fits the Section 7.4 model per application and
// correlates it against simulation.
func BenchmarkTable4Model(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(run.Parallel(), experiments.DefaultConfig(), 8,
			[]float64{1, 4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, r := range rows {
			if r.Correl < worst {
				worst = r.Correl
			}
		}
	}
	b.ReportMetric(worst, "min-correlation")
}

// BenchmarkFig3Speedup runs the speedup-versus-problem-size sweep for
// every application (Figure 3).
func BenchmarkFig3Speedup(b *testing.B) {
	for _, bench := range experiments.Benchmarks() {
		bench := bench
		b.Run(bench.Name(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s, err := experiments.RunSweep(nil, bench, experiments.DefaultConfig(),
					experiments.QuickPagePoints())
				if err != nil {
					b.Fatal(err)
				}
				sp := s.Speedups()
				last = sp[len(sp)-1]
			}
			b.ReportMetric(last, "speedup@32pg")
		})
	}
}

// BenchmarkFig4Nonoverlap measures the processor-stall fraction sweep
// (Figure 4).
func BenchmarkFig4Nonoverlap(b *testing.B) {
	for _, bench := range experiments.Benchmarks() {
		bench := bench
		b.Run(bench.Name(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				m, err := apps.Measure(nil, bench, experiments.DefaultConfig(), 32)
				if err != nil {
					b.Fatal(err)
				}
				last = 100 * m.NonOverlap
			}
			b.ReportMetric(last, "%stalled@32pg")
		})
	}
}

// BenchmarkFig5CacheSweep runs the L1 data-cache size study (Figure 5).
func BenchmarkFig5CacheSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.CacheSweep(run.Parallel(),
			[]string{"database", "median-kernel", "median-total"},
			experiments.DefaultConfig(), "L1D",
			[]uint64{32 * 1024, 64 * 1024, 256 * 1024}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5L2Sweep runs the Section 7.3 L2 study.
func BenchmarkFig5L2Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := experiments.CacheSweep(run.Parallel(),
			[]string{"database", "median-kernel"},
			experiments.DefaultConfig(), "L2",
			[]uint64{256 * 1024, 1024 * 1024, 4 * 1024 * 1024}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8MissLatency runs the cache-miss latency sensitivity study
// (Figure 8).
func BenchmarkFig8MissLatency(b *testing.B) {
	lats := []sim.Duration{0, 50 * sim.Nanosecond, 300 * sim.Nanosecond, 600 * sim.Nanosecond}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MissLatencySweep(run.Parallel(), experiments.DefaultConfig(), lats, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9LogicSpeed runs the logic-clock sensitivity study
// (Figure 9).
func BenchmarkFig9LogicSpeed(b *testing.B) {
	divs := []uint64{2, 10, 50, 100}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LogicSpeedSweep(run.Parallel(), experiments.DefaultConfig(), divs, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelRecurrence evaluates the Figure 7 NO(i) recurrence at
// Table 4 scale.
func BenchmarkModelRecurrence(b *testing.B) {
	p := model.Params{
		TA:          2058 * sim.Nanosecond,
		TP:          387 * sim.Nanosecond,
		TC:          1250 * sim.Microsecond,
		ConvPerPage: 4 * sim.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		p.Speedup(3225)
	}
}

// BenchmarkAblations runs the design-choice ablations DESIGN.md lists.
func BenchmarkAblations(b *testing.B) {
	cfg := experiments.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationActivation(nil, cfg, 8); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.AblationInterPage(nil, cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}
