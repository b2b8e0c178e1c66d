// Command apbench regenerates the tables and figures of "Active Pages: A
// Computation Model for Intelligent Memory" (ISCA 1998) from the simulator
// in this repository.
//
// Usage:
//
//	apbench -experiment all
//	apbench -experiment fig3 [-quick] [-pagebytes 65536] [-jobs 8]
//	apbench -experiment table4 -json
//	apbench -experiment ablations
//	apbench -experiment array -quick -json -report
//	apbench -experiment backends -quick
//	apbench -experiment array -quick -backend simdram
//
// Experiments: table1 table2 table3 table4 crossover fig3 fig4 fig5 fig8
// fig9 smp ablations backends all — or any single benchmark name (array,
// database, median-kernel, median-total, dynamic-prog, matrix-simplex,
// matrix-boeing, mpeg-mmx), which sweeps that benchmark alone over the
// problem-size axis.
//
// -backend selects the Active-Page compute backend: radram (the default,
// the paper's reconfigurable-logic DRAM), simdram (a bit-serial
// row-parallel in-DRAM SIMD model), or all to run each in turn. Only the
// kernels with bit-serial ports (array, database, median) run on simdram;
// experiments that only make sense on RADram print a skip note there. The
// "backends" experiment renders the three-way conventional/RADram/SIMDRAM
// comparison and the crossover figures.
//
// Every experiment is a grid of independent simulations executed across
// -jobs worker goroutines (default: one per CPU); the merged output is
// byte-identical to a serial run. -json appends one machine-readable
// metrics snapshot — every machine component's counters summed over all
// simulations of the invocation — after the human-readable tables.
// -report appends a bottleneck attribution report: per-benchmark phase
// breakdown (compute / memory stall / Active-Page wait / mediation, plus
// bus and logic occupancy) and latency-histogram quantiles. To trace one
// conventional/RADram pair in Perfetto, run apsim -trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"activepages/internal/experiments"
	"activepages/internal/radram"
	"activepages/internal/report"
	"activepages/internal/run"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "apbench:", err)
		os.Exit(1)
	}
}

// realMain carries the whole run so its defers — CPU/heap profile flushes
// — execute on every exit path, including errors; main translates the
// error into the process exit code after they have run.
func realMain() error {
	var (
		experiment = flag.String("experiment", "all", "which experiment or benchmark to run")
		quick      = flag.Bool("quick", false, "use a short problem-size axis")
		pageBytes  = flag.Uint64("pagebytes", experiments.ScaledPageBytes,
			"superpage size, 8KiB to 512KiB (512KiB = paper reference; smaller = scaled mode)")
		backendSel = flag.String("backend", "radram", "compute backend: radram, simdram, or all")
		regions    = flag.Bool("regions", false, "with fig3: print region classification")
		l2         = flag.Bool("l2", false, "with fig5: sweep the L2 instead of the L1D")
		csvDir     = flag.String("csv", "", "also write each figure as CSV into this directory")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "simulation worker-pool width")
		nocheck    = flag.Bool("nocheckpoint", false, "disable checkpoint/branch sweep reuse (A/B timing)")
		jsonOut    = flag.Bool("json", false, "append a merged metrics snapshot as JSON")
		reportOut  = flag.Bool("report", false, "append a bottleneck attribution report")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage: %s [flags]\n\n", filepath.Base(os.Args[0]))
		fmt.Fprintf(w, "-experiment accepts a composite experiment:\n  all %s backends\n",
			strings.Join(experiments.All, " "))
		fmt.Fprintf(w, "or a single benchmark name, which sweeps that benchmark alone over\nthe problem-size axis:\n  %s\n\n",
			strings.Join(experiments.BenchmarkNames(), " "))
		fmt.Fprintln(w, "Flags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := radram.DefaultConfig().WithPageBytes(*pageBytes)
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("-pagebytes %d: %w", *pageBytes, err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
			}
		}()
	}

	points := experiments.DefaultPagePoints()
	if *quick {
		points = experiments.QuickPagePoints()
	}

	r := &run.Runner{Jobs: *jobs}
	if !*nocheck {
		// Checkpoint/branch: sweep points sharing a canonical configuration
		// simulate once and branch from the stored machine state. Output is
		// byte-identical with or without it; -nocheckpoint exists for A/B
		// timing and bisection.
		r.Checkpoints = run.NewCheckpointCache(0)
	}
	if *jsonOut || *reportOut {
		r.WithMetrics()
	}
	opt := experiments.Options{Regions: *regions, L2: *l2, CSVDir: *csvDir, Backend: *backendSel}
	if err := experiments.Dispatch(os.Stdout, r, *experiment, cfg, points, opt); err != nil {
		return err
	}
	if *reportOut {
		fmt.Printf("\n##### report #####\n")
		report.FromGroups(r.Metrics.Groups()).WriteTo(os.Stdout)
	}
	if *jsonOut {
		j, err := r.Metrics.Snapshot().JSON()
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n%s\n", report.MetricsMarker, j)
	}
	return nil
}
