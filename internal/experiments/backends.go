package experiments

import (
	"fmt"
	"strings"

	"activepages/internal/apps"
	"activepages/internal/backend"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/simdram"
	"activepages/internal/tabler"
)

// BackendNames lists the compute backends the -backend flag accepts
// (besides the "all" meta-selector).
func BackendNames() []string { return []string{"radram", "simdram"} }

// BackendByName resolves a compute-backend selector. The empty name is
// the historical default, RADram.
func BackendByName(name string) (backend.ComputeBackend, error) {
	switch name {
	case "", "radram":
		return radram.CostModel{}, nil
	case "simdram":
		return simdram.Default(), nil
	}
	return nil, fmt.Errorf("experiments: unknown backend %q (want %s, or all)",
		name, strings.Join(BackendNames(), ", "))
}

// backendLabel is the display name of a backend in figure titles.
func backendLabel(name string) string {
	switch name {
	case "", "radram":
		return "RADram"
	case "simdram":
		return "SIMDRAM"
	}
	return name
}

// configFor returns cfg targeted at the named backend. The RADram name
// returns cfg untouched, so the default pipeline stays byte-identical.
func configFor(cfg radram.Config, name string) (radram.Config, error) {
	if name == "" || name == "radram" {
		return cfg, nil
	}
	b, err := BackendByName(name)
	if err != nil {
		return cfg, err
	}
	return cfg.WithBackend(b), nil
}

// backendBenchmarks filters the Figure 3 suite to the kernels ported to
// the named backend (the whole suite, for RADram).
func backendBenchmarks(name string) []apps.Benchmark {
	var out []apps.Benchmark
	for _, b := range Benchmarks() {
		if apps.Supports(b, name) {
			out = append(out, b)
		}
	}
	return out
}

// portedNames lists the benchmark names available on the named backend.
func portedNames(name string) []string {
	bs := backendBenchmarks(name)
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name()
	}
	return out
}

// radramOnly names the experiments that have no meaning on another
// backend, with the reason printed by the deterministic skip note.
var radramOnly = map[string]string{
	"table1":    "prints the RADram machine parameters",
	"table3":    "reports RADram circuit synthesis",
	"table4":    "fits the RADram overlap model",
	"crossover": "uses the RADram model recurrence",
	"fig5":      "sweeps cache sizes over the full RADram suite",
	"fig8":      "sweeps miss latency over the full RADram suite",
	"fig9":      "sweeps the RADram logic-clock divisor",
	"smp":       "drives RADram pages from multiple processors",
	"ablations": "ablates RADram dispatch parameters",
}

// DefaultWidths is the operand-width axis of the backends crossover
// study: the range SIMDRAM prices bit-serially.
func DefaultWidths() []int { return []int{8, 16, 32, 64} }

// BackendComparison measures every SIMDRAM-ported kernel on all three
// machines — conventional, RADram, SIMDRAM — at one problem size. Each
// kernel's RADram and SIMDRAM measures are adjacent grid points.
func BackendComparison(r *run.Runner, cfg radram.Config, pages float64) (*tabler.Table, error) {
	bs := backendBenchmarks("simdram")
	cfgs := []radram.Config{cfg, cfg.WithBackend(simdram.Default())}
	g, err := grid(r, bs, len(cfgs), func(i int) (radram.Config, float64) { return cfgs[i], pages })
	if err != nil {
		return nil, err
	}
	t := tabler.New(
		fmt.Sprintf("Backends: conventional vs RADram vs SIMDRAM at %g pages", pages),
		"Benchmark", "conv ms", "RADram ms", "SIMDRAM ms",
		"RADram speedup", "SIMDRAM speedup", "SIMDRAM/RADram")
	for bi, b := range bs {
		rad, sd := g[bi][0], g[bi][1]
		t.Row(b.Name(),
			rad.ConvTime.Milliseconds(),
			rad.RadTime.Milliseconds(),
			sd.RadTime.Milliseconds(),
			rad.Speedup(), sd.Speedup(),
			float64(rad.RadTime)/float64(sd.RadTime))
	}
	return t, nil
}

// WidthCrossover sweeps the forced operand width of the SIMDRAM cost
// model at a fixed problem size: bit-serial time grows linearly with
// width while RADram's word-parallel circuits do not, so each series
// crosses 1.0 where the backends break even. It measures in two passes,
// every RADram point first, then the widths.
func WidthCrossover(r *run.Runner, cfg radram.Config, widths []int, pages float64) (*tabler.Figure, error) {
	bs := backendBenchmarks("simdram")
	rads, err := grid(r, bs, 1, func(int) (radram.Config, float64) { return cfg, pages })
	if err != nil {
		return nil, err
	}
	sds, err := grid(r, bs, len(widths), func(i int) (radram.Config, float64) {
		return cfg.WithBackend(simdram.Default().WithWidth(widths[i])), pages
	})
	if err != nil {
		return nil, err
	}
	f := tabler.NewFigure(
		fmt.Sprintf("Backends crossover: SIMDRAM-over-RADram speedup vs operand width at %g pages", pages),
		"operand bits", "RADram time / SIMDRAM time")
	f.X = axis(widths, func(w int) float64 { return float64(w) })
	for bi, b := range bs {
		rad := float64(rads[bi][0].RadTime)
		f.Add(b.Name(), series(sds[bi], func(m apps.Measurement) float64 { return rad / float64(m.RadTime) }))
	}
	return f, nil
}

// PageCrossover compares the two Active-Page backends over the
// problem-size axis: values above 1.0 mean SIMDRAM's row-parallel lanes
// beat RADram's reconfigurable logic at that size (small problems
// underfill the lanes; large ones amortize them). Each size's RADram and
// SIMDRAM measures are adjacent grid points.
func PageCrossover(r *run.Runner, cfg radram.Config, points []float64) (*tabler.Figure, error) {
	bs := backendBenchmarks("simdram")
	cfgs := []radram.Config{cfg, cfg.WithBackend(simdram.Default())}
	g, err := grid(r, bs, 2*len(points), func(i int) (radram.Config, float64) {
		return cfgs[i%2], points[i/2]
	})
	if err != nil {
		return nil, err
	}
	f := tabler.NewFigure(
		"Backends crossover: SIMDRAM-over-RADram speedup vs problem size",
		"pages", "RADram time / SIMDRAM time")
	f.X = points
	for bi, b := range bs {
		y := make([]float64, len(points))
		for i := range y {
			y[i] = float64(g[bi][2*i].RadTime) / float64(g[bi][2*i+1].RadTime)
		}
		f.Add(b.Name(), y)
	}
	return f, nil
}

// backendsStudy is the whole three-way study: the comparison table, then
// the width and page-count crossover figures.
func backendsStudy(r *run.Runner, cfg radram.Config, points []float64) ([]block, error) {
	cmp, err := BackendComparison(r, cfg, 16)
	if err != nil {
		return nil, err
	}
	wf, err := WidthCrossover(r, cfg, DefaultWidths(), 16)
	if err != nil {
		return nil, err
	}
	pf, err := PageCrossover(r, cfg, points)
	if err != nil {
		return nil, err
	}
	return []block{{table: cmp}, {text: "\n"}, {figure: wf, csv: "backends-width"},
		{text: "\n"}, {figure: pf, csv: "backends-pages"}}, nil
}
