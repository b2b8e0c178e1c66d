package experiments

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/bus"
	"activepages/internal/circuits"
	"activepages/internal/logic"
	"activepages/internal/model"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/sim"
	"activepages/internal/tabler"
)

// Table1 renders the machine parameters (paper Table 1) from the live
// configuration, so the report always reflects what actually ran.
func Table1(cfg radram.Config) *tabler.Table {
	t := tabler.New("Table 1: RADram parameters", "Parameter", "Reference", "Variation")
	clockGHz := float64(cfg.CPU.ClockHz) / 1e9
	logicMHz := clockGHz * 1000 / float64(cfg.AP.LogicDivisor)
	t.Row("CPU Clock", sprintf("%g GHz", clockGHz), "-")
	t.Row("L1 I-Cache", kb(cfg.Mem.L1I.SizeBytes), "-")
	t.Row("L1 D-Cache", kb(cfg.Mem.L1D.SizeBytes), "32K-256K")
	t.Row("L2 Cache", kb(cfg.Mem.L2.SizeBytes), "256K-4M")
	t.Row("Reconf Logic", sprintf("%g MHz", logicMHz), "10-500 MHz")
	t.Row("Cache Miss", sprintf("%g ns", cfg.Mem.DRAM.AccessTime.Nanoseconds()), "0-600 ns")
	t.Row("Page Size", kb(cfg.AP.PageBytes), "-")
	t.Row("Memory Bus", sprintf("%d bits / %g ns",
		cfg.Mem.Bus.WordBytes*8, cfg.Mem.Bus.BeatTime.Nanoseconds()), "-")
	return t
}

// Table2 renders the application partitioning summary from benchmark
// metadata (paper Table 2).
func Table2() *tabler.Table {
	t := tabler.New("Table 2: partitioning of applications",
		"Name", "Class", "Partitioning")
	for _, b := range Benchmarks() {
		t.Row(b.Name(), b.Partitioning().String(), b.Description())
	}
	return t
}

// Table3 renders the synthesized-circuit report next to the paper's
// values.
func Table3() *tabler.Table {
	t := tabler.New("Table 3: Active-Page functions synthesized for RADram",
		"Application", "LEs", "Speed ns", "Code KB", "paper LEs", "paper ns", "paper KB")
	paper := circuits.PaperTable3()
	for i, d := range circuits.All() {
		r := logic.Synthesize(d)
		t.Row(r.Name, r.LEs, r.SpeedNs, r.CodeKB(),
			paper[i].LEs, paper[i].SpeedNs, paper[i].CodeKB)
	}
	return t
}

// Table4Row is one application's model parameters and correlation.
type Table4Row struct {
	Benchmark string
	TA, TP    sim.Duration
	TC        sim.Duration
	PagesFor  int
	Correl    float64
}

// fitted is one application's Section 7.4 model, fitted at one problem
// size, beside its measured sweep.
type fitted struct {
	params model.Params
	sweep  *Sweep
}

// fitAndSweep fits the Section 7.4 model to each application at fitPages
// and measures it across sweepPages — the shared core of Table 4 and the
// crossover study. Each application's fit-and-sweep is one independent
// unit on the worker pool.
func fitAndSweep(r *run.Runner, cfg radram.Config, fitPages float64, sweepPages []float64) ([]fitted, error) {
	bs := Benchmarks()
	return run.Map(r, len(bs), func(i int) (fitted, error) {
		fit, err := apps.Measure(r, bs[i], cfg, fitPages)
		if err != nil {
			return fitted{}, err
		}
		convPerPage := sim.Duration(float64(fit.ConvTime) / fit.Pages)
		p := model.FitParams(fit.ActivationTime, fit.PostTime, fit.BusyTime, convPerPage)
		sweep, err := RunSweep(serially(r), bs[i], cfg, sweepPages)
		return fitted{params: p, sweep: sweep}, err
	})
}

// Table4 fits the Section 7.4 model to each application at a medium
// problem size, computes pages-for-complete-overlap from the recurrence,
// and correlates model-predicted speedups against the measured sweep —
// the full content of the paper's Table 4.
func Table4(r *run.Runner, cfg radram.Config, fitPages float64, sweepPages []float64) ([]Table4Row, error) {
	fits, err := fitAndSweep(r, cfg, fitPages, sweepPages)
	if err != nil {
		return nil, err
	}
	pages := make([]int, len(sweepPages))
	for i, v := range sweepPages {
		pages[i] = max(int(v), 1)
	}
	rows := make([]Table4Row, len(fits))
	for i, f := range fits {
		correl, err := model.Correlate(f.params, pages, f.sweep.Speedups())
		if err != nil {
			return nil, err
		}
		rows[i] = Table4Row{
			Benchmark: f.sweep.Benchmark,
			TA:        f.params.TA,
			TP:        f.params.TP,
			TC:        f.params.TC,
			PagesFor:  f.params.PagesForOverlap(),
			Correl:    correl,
		}
	}
	return rows, nil
}

// RenderTable4 formats Table 4 rows.
func RenderTable4(rows []Table4Row) *tabler.Table {
	t := tabler.New("Table 4: model parameters, overlap point, and model-vs-simulation correlation",
		"Application", "T_A (us)", "T_P (us)", "T_C (ms)", "Pgs for overlap", "Speedup correl.")
	for _, r := range rows {
		t.Row(r.Benchmark, r.TA.Microseconds(), r.TP.Microseconds(),
			r.TC.Milliseconds(), r.PagesFor, r.Correl)
	}
	return t
}

func kb(b uint64) string { return fmt.Sprintf("%dK", b/1024) }

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// SwapCost quantifies the Active-Page page-replacement cost of Section 6:
// swapping a conventional page moves its data; swapping an Active Page
// additionally reloads the bound function's configuration bitstream
// through the serial configuration port. The paper estimates the total at
// 2-4x a conventional page move.
func SwapCost(cfg radram.Config) *tabler.Table {
	t := tabler.New("Page-replacement cost: conventional vs Active Page (Section 6)",
		"Circuit", "data move (ms)", "reconfig (ms)", "AP swap (ms)", "ratio")
	// Moving one superpage over the memory bus.
	b := bus.New(cfg.Mem.Bus)
	moveTime := b.TransferTime(cfg.AP.PageBytes)
	for _, d := range circuits.All() {
		r := logic.Synthesize(d)
		reconf := logic.SerialReconfigurationTime(r, logic.DefaultSerialConfigBps)
		total := moveTime + reconf
		t.Row(r.Name, moveTime.Milliseconds(), reconf.Milliseconds(),
			total.Milliseconds(), float64(total)/float64(moveTime))
	}
	return t
}

// CrossoverRow ties Figure 3 to Table 4: the measured problem size where
// an application's non-overlap collapses (the scalable-to-saturated
// boundary) next to the analytic model's pages-for-complete-overlap
// prediction derived from the same run's constants.
type CrossoverRow struct {
	Benchmark string
	// MeasuredPages is the first sweep point where non-overlap < 5%;
	// 0 means the application never saturated within the sweep.
	MeasuredPages float64
	// PredictedPages is model.Params.PagesForOverlap from the fit point.
	PredictedPages int
}

// CrossoverStudy computes the saturation boundary both ways. Applications
// that do not saturate within the sweep report MeasuredPages 0; their
// prediction should then also lie beyond the sweep's end.
func CrossoverStudy(r *run.Runner, cfg radram.Config, fitPages float64, sweepPages []float64) ([]CrossoverRow, error) {
	fits, err := fitAndSweep(r, cfg, fitPages, sweepPages)
	if err != nil {
		return nil, err
	}
	rows := make([]CrossoverRow, len(fits))
	for i, f := range fits {
		rows[i] = CrossoverRow{Benchmark: f.sweep.Benchmark, PredictedPages: f.params.PagesForOverlap()}
		for j, m := range f.sweep.Points {
			if m.NonOverlap < 0.05 {
				rows[i].MeasuredPages = sweepPages[j]
				break
			}
		}
	}
	return rows, nil
}

// RenderCrossover formats the crossover study.
func RenderCrossover(rows []CrossoverRow, sweepEnd float64) *tabler.Table {
	t := tabler.New("Saturation boundary: measured (Figure 3/4) vs model (Table 4)",
		"Application", "measured pages", "model pages")
	for _, r := range rows {
		measured := any(r.MeasuredPages)
		if r.MeasuredPages == 0 {
			measured = fmt.Sprintf("> %g", sweepEnd)
		}
		t.Row(r.Benchmark, measured, r.PredictedPages)
	}
	return t
}
