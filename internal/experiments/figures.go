package experiments

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/sim"
	"activepages/internal/tabler"
)

// Figure3For renders the speedup sweep for the named Active-Page
// backend.
func Figure3For(sweeps []*Sweep, label string) *tabler.Figure {
	f := tabler.NewFigure(
		fmt.Sprintf("Figure 3: %s speedup as problem size varies", label),
		"pages", fmt.Sprintf("speedup (conventional/%s)", label))
	if len(sweeps) > 0 {
		f.X = sweeps[0].Pages
	}
	for _, s := range sweeps {
		f.Add(s.Benchmark, s.Speedups())
	}
	return f
}

// Figure4For renders the processor-stall sweep for the named backend.
func Figure4For(sweeps []*Sweep, label string) *tabler.Figure {
	f := tabler.NewFigure(
		fmt.Sprintf("Figure 4: percent cycles processor stalled on %s", label),
		"pages", "% cycles stalled")
	if len(sweeps) > 0 {
		f.X = sweeps[0].Pages
	}
	for _, s := range sweeps {
		f.Add(s.Benchmark, s.NonOverlaps())
	}
	return f
}

// DefaultL1Sizes is Figure 5's x axis (Table 1 variation: 32K-256K, with
// two smaller points to expose the left-edge sensitivity the paper notes
// "when it fell below 64 kilobytes").
func DefaultL1Sizes() []uint64 {
	return []uint64{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}
}

// DefaultL2Sizes is the Section 7.3 L2 sweep (256K-4M).
func DefaultL2Sizes() []uint64 {
	return []uint64{256 * 1024, 512 * 1024, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024}
}

// CacheSweep measures execution time versus a cache size for both machine
// types at a fixed problem size. level is "L1D" or "L2".
func CacheSweep(r *run.Runner, benchNames []string, cfg radram.Config, level string,
	sizes []uint64, pages float64) (conv, rad *tabler.Figure, err error) {

	conv = tabler.NewFigure(
		fmt.Sprintf("Figure 5 (left): conventional execution time vs %s size", level),
		level+" KB", "time (ms)")
	rad = tabler.NewFigure(
		fmt.Sprintf("Figure 5 (right): RADram execution time vs %s size", level),
		level+" KB", "time (ms)")
	conv.X = axis(sizes, func(s uint64) float64 { return float64(s) / 1024 })
	rad.X = conv.X

	benches := make([]apps.Benchmark, len(benchNames))
	for i, name := range benchNames {
		if benches[i], err = BenchmarkByName(name); err != nil {
			return nil, nil, err
		}
	}
	g, err := grid(r, benches, len(sizes), func(i int) (radram.Config, float64) {
		if level == "L2" {
			return cfg.WithL2(sizes[i]), pages
		}
		return cfg.WithL1D(sizes[i]), pages
	})
	if err != nil {
		return nil, nil, err
	}
	addSeries(conv, benches, g, func(m apps.Measurement) float64 { return m.ConvTime.Milliseconds() })
	addSeries(rad, benches, g, func(m apps.Measurement) float64 { return m.RadTime.Milliseconds() })
	return conv, rad, nil
}

// DefaultMissLatencies is Figure 8's x axis (0-600 ns).
func DefaultMissLatencies() []sim.Duration {
	out := []sim.Duration{0}
	for _, ns := range []uint64{50, 100, 200, 300, 400, 500, 600} {
		out = append(out, sim.Duration(ns)*sim.Nanosecond)
	}
	return out
}

// MissLatencySweep measures speedup versus cache-miss latency at a fixed
// problem size (Figure 8).
func MissLatencySweep(r *run.Runner, cfg radram.Config, latencies []sim.Duration, pages float64) (*tabler.Figure, error) {
	f := tabler.NewFigure("Figure 8: RADram speedup as cache-to-memory latency varies",
		"miss ns", "speedup")
	f.X = axis(latencies, sim.Duration.Nanoseconds)
	bs := Benchmarks()
	g, err := grid(r, bs, len(latencies), func(i int) (radram.Config, float64) {
		return cfg.WithMissLatency(latencies[i]), pages
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, bs, g, apps.Measurement.Speedup)
	return f, nil
}

// DefaultLogicDivisors is Figure 9's x axis: CPU-clock/logic-clock ratios
// (Table 1 variation 10-500 MHz logic at a 1 GHz core; reference 10).
func DefaultLogicDivisors() []uint64 {
	return []uint64{2, 4, 10, 20, 50, 100}
}

// LogicSpeedSweep measures speedup versus the logic-clock divisor at a
// fixed problem size (Figure 9; higher divisor = slower logic).
func LogicSpeedSweep(r *run.Runner, cfg radram.Config, divisors []uint64, pages float64) (*tabler.Figure, error) {
	f := tabler.NewFigure("Figure 9: RADram speedup as logic speed varies",
		"logic divisor", "speedup")
	f.X = axis(divisors, func(d uint64) float64 { return float64(d) })
	bs := Benchmarks()
	g, err := grid(r, bs, len(divisors), func(i int) (radram.Config, float64) {
		return cfg.WithLogicDivisor(divisors[i]), pages
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, bs, g, apps.Measurement.Speedup)
	return f, nil
}
