// Package apps defines the application-study interface shared by the six
// workloads of the paper's evaluation (Table 2): each benchmark runs the
// same algorithm against a conventional machine or a RADram machine, sized
// to occupy a requested number of Active-Page superpages.
//
// Benchmarks verify their own answers: every run recomputes the kernel's
// result from the simulated memory image and compares against a host-side
// reference, so a timing model bug can never masquerade as a speedup.
package apps

import (
	"slices"
	"time"

	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/sim"
)

// Partitioning classifies a benchmark per Section 5.
type Partitioning int

const (
	// MemoryCentric applications run almost entirely in Active Pages.
	MemoryCentric Partitioning = iota
	// ProcessorCentric applications use Active Pages to feed the processor.
	ProcessorCentric
)

// String names the partitioning class.
func (p Partitioning) String() string {
	if p == MemoryCentric {
		return "memory-centric"
	}
	return "processor-centric"
}

// Benchmark is one application kernel.
//
// Isolation invariant: a Benchmark must be safe to instantiate per run.
// Implementations are small value types holding only configuration; all
// run state (working data, page groups, caches) must live on the machine
// passed to Run or in locals, never in package-level variables or in a
// mem.Store shared across runs. The exception is each application's
// workload.Memo of inputs and reference answers: generated once per size
// and read-only to every run. The evaluation harness executes many Measure
// calls concurrently on a worker pool (internal/run), each against freshly
// built machines, and relies on this invariant for determinism.
type Benchmark interface {
	// Name is the kernel's identifier (matching the paper's figures, e.g.
	// "database", "matrix-boeing").
	Name() string
	// Partitioning reports the kernel's class (Table 2).
	Partitioning() Partitioning
	// Description summarizes the processor/Active-Page split (Table 2).
	Description() string
	// Run executes the kernel on machine m — conventional when m.AP is
	// nil, partitioned otherwise — sized to roughly `pages` superpages of
	// data. It returns an error if the computed result fails verification.
	Run(m *radram.Machine, pages float64) error
}

// Measurement is the outcome of running one benchmark on one machine pair.
type Measurement struct {
	Benchmark string
	Pages     float64
	ConvTime  sim.Time
	RadTime   sim.Time
	// NonOverlap is the fraction of RADram processor time stalled on
	// Active-Page computation (Figure 4's metric).
	NonOverlap float64
	// ActivationTime and PostTime are mean per-page T_A and T_P; BusyTime
	// is mean per-page T_C (Table 4's metrics).
	ActivationTime sim.Duration
	PostTime       sim.Duration
	BusyTime       sim.Duration
}

// Speedup is conventional time over RADram time (Figures 3, 8, 9).
func (m Measurement) Speedup() float64 {
	if m.RadTime == 0 {
		return 0
	}
	return float64(m.ConvTime) / float64(m.RadTime)
}

// Ported is implemented by benchmarks whose page functions have been
// ported beyond RADram's reconfigurable logic — the capability query the
// experiment layer uses to select workloads per backend.
type Ported interface {
	// PortedBackends names the additional compute backends the
	// benchmark's page functions execute on (e.g. "simdram").
	PortedBackends() []string
}

// Supports reports whether b runs on the named compute backend. Every
// benchmark runs on the default backend, RADram; other backends require
// the benchmark to declare the port via Ported.
func Supports(b Benchmark, backendName string) bool {
	if backendName == radram.DefaultBackend().Name() {
		return true
	}
	p, ok := b.(Ported)
	return ok && slices.Contains(p.PortedBackends(), backendName)
}

// Measure runs b at the given problem size through r.Simulate on the
// conventional machine, then the Active-Page machine, built from cfg, and
// derives the paper's metrics. When r collects metrics, the pair's
// snapshot goes to its collector under the benchmark's name, the machines
// under "conv." and apPrefix. When r tracks progress, the measurement is
// reported as one run.MeasureEvent; the untracked path never reads the
// wall clock. A nil runner measures cold, uncancelable and unobserved.
func Measure(r *run.Runner, b Benchmark, cfg radram.Config, pages float64) (meas Measurement, err error) {
	var conv, ap run.Outcome
	if r.ProgressTracker() != nil {
		start := time.Now()
		defer func() {
			r.NoteMeasure(run.MeasureEvent{Benchmark: b.Name(), Pages: pages,
				Backend: cfg.BackendName(), ConvCheckpoint: conv.Checkpoint,
				APCheckpoint: ap.Checkpoint, Start: start, Wall: time.Since(start), Err: err})
		}()
	}
	if conv, err = r.Simulate(b, run.Conventional, cfg, pages); err != nil {
		return Measurement{}, err
	}
	if ap, err = r.Simulate(b, run.ActivePage, cfg, pages); err != nil {
		return Measurement{}, err
	}

	meas = Measurement{
		Benchmark:  b.Name(),
		Pages:      pages,
		ConvTime:   conv.Elapsed,
		RadTime:    ap.Elapsed,
		NonOverlap: ap.Stats.NonOverlapFraction(),
	}
	// Per-page Table 4 metrics from the Active-Page system's ledger.
	if n := sim.Duration(ap.Pages); n > 0 {
		meas.ActivationTime = ap.ActivationTime / n
		meas.BusyTime = ap.BusyTime / n
		// T_P: per-page processor time that is neither dispatch nor a
		// stall on page computation — post-activated work in the model of
		// Section 7.4 (result summarization, operand multiplies, cross-
		// page moves).
		post := ap.Stats.TotalTime() - ap.Stats.NonOverlapTime
		if post > ap.ActivationTime {
			meas.PostTime = (post - ap.ActivationTime) / n
		}
	}
	if conv.Snapshot != nil {
		snap := conv.Snapshot.WithPrefix("conv.")
		snap.Merge(ap.Snapshot.WithPrefix(apPrefix(cfg)))
		r.CollectGroup(b.Name(), snap)
	}
	return meas, nil
}

// apPrefix is the metrics namespace of the Active-Page machine: its
// backend's catalog namespace, so multi-backend aggregates never collide.
func apPrefix(cfg radram.Config) string {
	b, _ := radram.LookupBackend(cfg.BackendName())
	return b.Namespace + "."
}
