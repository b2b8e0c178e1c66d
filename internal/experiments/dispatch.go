package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"activepages/internal/apps"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/tabler"
)

// All names every composite experiment, in the order "all" runs them.
// apbench's usage text, its unknown-experiment error, and the serve API's
// validation all enumerate this one list, so they can never drift apart.
var All = []string{"table1", "table2", "table3", "fig3", "fig4",
	"table4", "crossover", "fig5", "fig8", "fig9", "smp", "ablations"}

// Options carries the presentation knobs of a dispatched experiment.
type Options struct {
	// Regions prints the Figure 1 region classification after fig3.
	Regions bool
	// L2 makes fig5 sweep the L2 instead of the L1D.
	L2 bool
	// CSVDir, when set, also writes each figure as CSV into the directory.
	CSVDir string
	// Backend selects the Active-Page compute backend: "radram" (the
	// default when empty), "simdram", or "all" to run every backend in
	// sequence. Experiments that only make sense on RADram print a
	// deterministic skip note on other backends.
	Backend string
}

// IsKnown reports whether name is a dispatchable experiment: "all", a
// composite experiment, the backends study, or a benchmark name.
func IsKnown(name string) bool {
	if name == "all" || name == "backends" {
		return true
	}
	for _, e := range All {
		if e == name {
			return true
		}
	}
	_, err := BenchmarkByName(name)
	return err == nil
}

// block is one unit of an experiment's output: a table, a figure with the
// name of its CSV file, or literal text.
type block struct {
	table  *tabler.Table
	figure *tabler.Figure
	csv    string
	text   string
}

// render prints an experiment's blocks to out in order and writes every
// figure as CSV into dir. Figures computed on a backend other than RADram
// get the backend as a file-name suffix ("array-simdram.csv"), so a
// multi-backend run keeps each backend's data.
func render(out io.Writer, blocks []block, dir, backend string) error {
	for _, b := range blocks {
		switch {
		case b.table != nil:
			b.table.WriteTo(out)
		case b.figure != nil:
			b.figure.WriteTo(out)
			name := b.csv
			if backend != "radram" {
				name += "-" + backend
			}
			if err := writeCSV(dir, name, b.figure); err != nil {
				return err
			}
		default:
			io.WriteString(out, b.text)
		}
	}
	return nil
}

// writeCSV saves a figure to dir/name.csv when dir is set, creating the
// parent directories as needed.
func writeCSV(dir, name string, f *tabler.Figure) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// Dispatch runs one named experiment — a composite experiment, "all", or a
// single benchmark name (which sweeps that benchmark over the problem-size
// axis) — rendering its tables to out. It is the single entry point shared
// by the apbench CLI and the apserved daemon; out receives exactly what
// apbench historically printed to stdout. Each experiment's output is
// written before the next one starts, so a reader of out sees every
// experiment as soon as it is computed.
func Dispatch(out io.Writer, r *run.Runner, experiment string, cfg radram.Config, points []float64, opt Options) error {
	bk := opt.Backend
	if bk == "" {
		bk = "radram"
	}
	if bk != "all" {
		if _, err := BackendByName(bk); err != nil {
			return err
		}
	}
	// The backends study is inherently three-way; it ignores the backend
	// selector.
	if experiment == "backends" {
		bk = "radram"
	}
	if bk == "all" {
		for _, name := range BackendNames() {
			fmt.Fprintf(out, "\n***** backend: %s *****\n", name)
			o := opt
			o.Backend = name
			if err := Dispatch(out, r, experiment, cfg, points, o); err != nil {
				return err
			}
		}
		return nil
	}
	if why, ok := radramOnly[experiment]; ok && bk != "radram" {
		fmt.Fprintf(out, "%s: skipped for backend %s (%s)\n", experiment, bk, why)
		return nil
	}
	if experiment == "all" {
		for _, e := range All {
			fmt.Fprintf(out, "\n##### %s #####\n", e)
			if err := Dispatch(out, r, e, cfg, points, opt); err != nil {
				return err
			}
		}
		// The three-way study joins the suite once a second backend is in
		// play; the default RADram-only run stays exactly the historical
		// output.
		if bk == "radram" {
			return nil
		}
		fmt.Fprintf(out, "\n##### backends #####\n")
		return Dispatch(out, r, "backends", cfg, points, opt)
	}
	// Announce the experiment to any attached progress tracker before its
	// sweeps schedule points (no-op without a tracker, so batch output is
	// untouched).
	r.ProgressTracker().SetLabel(experiment)
	bcfg, err := configFor(cfg, bk)
	if err != nil {
		return err
	}
	blocks, err := experimentBlocks(r, experiment, bcfg, points, opt)
	if err != nil {
		return err
	}
	return render(out, blocks, opt.CSVDir, bk)
}

// experimentBlocks computes one experiment's output on cfg, which is
// already targeted at the selected backend.
func experimentBlocks(r *run.Runner, experiment string, cfg radram.Config, points []float64, opt Options) ([]block, error) {
	label := backendLabel(cfg.BackendName())
	switch experiment {
	case "table1":
		return []block{{table: Table1(cfg)}}, nil
	case "table2":
		return []block{{table: Table2()}}, nil
	case "table3":
		return []block{{table: Table3()}}, nil
	case "table4":
		rows, err := Table4(r, cfg, 16, points)
		return []block{{table: RenderTable4(rows)}}, err
	case "crossover":
		rows, err := CrossoverStudy(r, cfg, 16, points)
		return []block{{table: RenderCrossover(rows, points[len(points)-1])}}, err
	case "fig3":
		sweeps, err := RunAllSweeps(r, cfg, points)
		out := []block{{figure: Figure3For(sweeps, label), csv: "fig3"}}
		if opt.Regions {
			for _, s := range sweeps {
				out = append(out, block{text: fmt.Sprintf("%s regions: %v\n", s.Benchmark, s.Regions())})
			}
		}
		return out, err
	case "fig4":
		sweeps, err := RunAllSweeps(r, cfg, points)
		return []block{{figure: Figure4For(sweeps, label), csv: "fig4"}}, err
	case "fig5":
		level, sizes := "L1D", DefaultL1Sizes()
		if opt.L2 {
			level, sizes = "L2", DefaultL2Sizes()
		}
		names := []string{"database", "median-kernel", "median-total", "array", "dynamic-prog"}
		conv, rad, err := CacheSweep(r, names, cfg, level, sizes, 16)
		return []block{{figure: conv, csv: "fig5-conventional"}, {text: "\n"},
			{figure: rad, csv: "fig5-radram"}}, err
	case "fig8":
		f, err := MissLatencySweep(r, cfg, DefaultMissLatencies(), 16)
		return []block{{figure: f, csv: "fig8"}}, err
	case "fig9":
		f, err := LogicSpeedSweep(r, cfg, DefaultLogicDivisors(), 16)
		return []block{{figure: f, csv: "fig9"}}, err
	case "smp":
		f, err := SMPStudy(r, cfg, 32, []int{1, 2, 4, 8})
		return []block{{figure: f, csv: "smp"}}, err
	case "ablations":
		return ablations(r, cfg)
	case "backends":
		return backendsStudy(r, cfg, points)
	}
	// Any benchmark name is an experiment: sweep that benchmark alone over
	// the problem-size axis.
	b, err := BenchmarkByName(experiment)
	if err != nil {
		return nil, fmt.Errorf("unknown experiment %q (want all, backends, %s, or a benchmark: %s)",
			experiment, strings.Join(All, ", "), strings.Join(BenchmarkNames(), ", "))
	}
	if bk := cfg.BackendName(); !apps.Supports(b, bk) {
		return nil, fmt.Errorf("benchmark %q has no %s port (ported: %s)",
			experiment, bk, strings.Join(portedNames(bk), ", "))
	}
	s, err := RunSweep(r, b, cfg, points)
	if err != nil {
		return nil, err
	}
	return []block{{figure: Figure3For([]*Sweep{s}, label), csv: experiment}}, nil
}
