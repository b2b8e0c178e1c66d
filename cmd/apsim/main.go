// Command apsim runs one application kernel on one machine configuration
// and prints the timing breakdown: conventional versus RADram execution,
// speedup, and the processor's time ledger.
//
// -trace FILE also records both runs in simulated time and writes them as
// one Chrome trace_event JSON file, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: the conventional machine
// is process 1, RADram process 2. Tracing never changes what the machines
// compute, so stdout is byte-identical with or without it.
//
// Usage:
//
//	apsim -app database -pages 16
//	apsim -app database -pages 4 -trace trace.json
//	apsim -app matrix-boeing -pages 64 -pagebytes 524288 -logicdiv 20 -missns 100
package main

import (
	"flag"
	"fmt"
	"os"

	"activepages/internal/experiments"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/sim"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "apsim:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		app       = flag.String("app", "database", "benchmark name (see apbench -experiment table2)")
		pages     = flag.Float64("pages", 16, "problem size in superpages, above 0 and at most 256")
		pageBytes = flag.Uint64("pagebytes", experiments.ScaledPageBytes, "superpage size in bytes")
		logicDiv  = flag.Uint64("logicdiv", 10, "CPU-clock/logic-clock divisor")
		missNs    = flag.Uint64("missns", 50, "cache-miss (DRAM access) latency in ns")
		l1d       = flag.Uint64("l1d", 64*1024, "L1 data cache bytes")
		l2        = flag.Uint64("l2", 1024*1024, "L2 cache bytes")
		traceFile = flag.String("trace", "", "also write a Chrome trace of both runs to this file")
	)
	flag.Parse()

	b, err := experiments.BenchmarkByName(*app)
	if err != nil {
		return err
	}
	if err := experiments.ValidatePages(*pages); err != nil {
		return fmt.Errorf("-pages %g: %w", *pages, err)
	}
	cfg := radram.DefaultConfig().
		WithPageBytes(*pageBytes).
		WithLogicDivisor(*logicDiv).
		WithMissLatency(sim.Duration(*missNs) * sim.Nanosecond).
		WithL1D(*l1d).
		WithL2(*l2)
	if err := cfg.Validate(); err != nil {
		return err
	}

	conv, rad, err := run.NewPair(cfg)
	if err != nil {
		return err
	}
	var convTr, radTr *obs.Tracer
	if *traceFile != "" {
		convTr, radTr = obs.NewTracer(0), obs.NewTracer(0)
		convTr.SetProcess(1, "conventional")
		radTr.SetProcess(2, rad.BackendName())
		conv.EnableTracing(convTr)
		rad.EnableTracing(radTr)
	}
	if err := b.Run(conv.Machine, *pages); err != nil {
		return fmt.Errorf("conventional: %w", err)
	}
	if err := b.Run(rad.Machine, *pages); err != nil {
		return fmt.Errorf("radram: %w", err)
	}
	if *traceFile != "" {
		conv.FlushTrace()
		rad.FlushTrace()
		if err := writeTrace(*traceFile, convTr, radTr); err != nil {
			return err
		}
	}

	fmt.Printf("benchmark      %s (%s)\n", b.Name(), b.Partitioning())
	fmt.Printf("problem size   %g pages x %d KB\n", *pages, *pageBytes/1024)
	fmt.Printf("conventional   %v\n", conv.Elapsed())
	fmt.Printf("radram         %v\n", rad.Elapsed())
	fmt.Printf("speedup        %.2fx\n", float64(conv.Elapsed())/float64(rad.Elapsed()))
	fmt.Println()

	cs, rs := conv.CPU.Stats, rad.CPU.Stats
	fmt.Println("processor ledger        conventional      radram")
	fmt.Printf("  compute               %-14v    %v\n", cs.ComputeTime, rs.ComputeTime)
	fmt.Printf("  memory stall          %-14v    %v\n", cs.MemStallTime, rs.MemStallTime)
	fmt.Printf("  non-overlap (AP wait) %-14v    %v\n", cs.NonOverlapTime, rs.NonOverlapTime)
	fmt.Printf("  mediation             %-14v    %v\n", cs.MediationTime, rs.MediationTime)
	fmt.Printf("  instructions          %-14d    %d\n", cs.Instructions, rs.Instructions)
	fmt.Println()
	fmt.Printf("radram activations     %d\n", rad.AP.Stats.Activations)
	fmt.Printf("radram logic busy      %v\n", rad.AP.Stats.LogicBusy)
	fmt.Printf("inter-page transfers   %d (%d bytes)\n",
		rad.AP.Stats.InterPageTransfers, rad.AP.Stats.InterPageBytes)
	fmt.Printf("stalled on AP          %.1f%%\n", 100*rs.NonOverlapFraction())
	return nil
}

// writeTrace exports both machines' traces as one Chrome trace_event
// document and reports the event count on stderr.
func writeTrace(path string, convTr, radTr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, convTr, radTr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "apsim: wrote %d trace events (%d dropped) to %s\n",
		convTr.Len()+radTr.Len(), convTr.Dropped()+radTr.Dropped(), path)
	return nil
}
