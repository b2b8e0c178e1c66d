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
	"fmt"
	"time"

	"activepages/internal/core"
	"activepages/internal/obs"
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
// benchmark runs on RADram; other backends require the benchmark to
// declare the port via Ported.
func Supports(b Benchmark, backendName string) bool {
	if backendName == "" || backendName == "radram" {
		return true
	}
	p, ok := b.(Ported)
	if !ok {
		return false
	}
	for _, n := range p.PortedBackends() {
		if n == backendName {
			return true
		}
	}
	return false
}

// Measure runs b at the given problem size on both machines built from cfg
// and collects the paper's metrics.
func Measure(b Benchmark, cfg radram.Config, pages float64) (Measurement, error) {
	return MeasureWith(nil, b, cfg, pages)
}

// MeasureWith is Measure through a runner: the runner's checkpoint cache
// (when attached) lets this point reuse the final state of an identical
// earlier run instead of simulating from cold, and the runner's context is
// polled from inside the simulation so a canceled sweep point unwinds
// mid-run. A nil runner measures cold and uncancelable.
func MeasureWith(r *run.Runner, b Benchmark, cfg radram.Config, pages float64) (Measurement, error) {
	m, _, _, _, err := measure(r, b, cfg, pages)
	return m, err
}

// apPrefix is the metrics namespace of the Active-Page machine: the
// historical "rad." for the RADram backend, the backend's own name for
// any other — so multi-backend aggregates never collide.
func apPrefix(cfg radram.Config) string {
	if name := cfg.BackendName(); name != "radram" {
		return name + "."
	}
	return "rad."
}

// MeasureObservedWith is MeasureWith plus the pair's merged metrics
// snapshot: the conventional machine's counters under "conv.", the
// Active-Page machine's under its backend namespace ("rad." for RADram,
// else the backend name). When the runner carries a checkpoint cache,
// each machine's namespace additionally gets one diag.checkpoint_* event
// recording how this point was satisfied: checkpoint_cold (a full
// simulation ran), or checkpoint_hit plus checkpoint_branch (a cached
// checkpoint was found and successfully restored into a branch machine).
// Diagnostic keys describe the simulation pipeline, not the simulated
// machine, so the equivalence suites strip them while -json and /metrics
// expose them.
func MeasureObservedWith(r *run.Runner, b Benchmark, cfg radram.Config, pages float64) (Measurement, obs.Snapshot, error) {
	m, conv, rad, hits, err := measure(r, b, cfg, pages)
	if err != nil {
		return m, nil, err
	}
	snap := conv.Snapshot().WithPrefix("conv.")
	snap.Merge(rad.Snapshot().WithPrefix(apPrefix(cfg)))
	if r.CheckpointCache() != nil {
		injectCheckpointDiag(snap, "conv.", hits[0])
		injectCheckpointDiag(snap, apPrefix(cfg), hits[1])
	}
	return m, snap, nil
}

// injectCheckpointDiag records how one machine run of a measured point was
// satisfied, in the machine's diagnostic namespace.
func injectCheckpointDiag(snap obs.Snapshot, prefix string, hit bool) {
	d := prefix + obs.DiagPrefix
	if hit {
		snap[d+"checkpoint_hit"]++
		snap[d+"checkpoint_branch"]++
	} else {
		snap[d+"checkpoint_cold"]++
	}
}

// runMachine produces a machine holding the final state of b run at the
// given problem size: through the runner's checkpoint cache when one is
// attached (simulating cold exactly once per canonical key and branching
// every other request from the stored checkpoint), from cold otherwise.
// build constructs the right fresh machine shape; key is the run's
// canonical checkpoint key.
func runMachine(r *run.Runner, b Benchmark, pages float64, key string,
	build func() (*run.Machine, error)) (*run.Machine, bool, error) {
	hook := r.InterruptHook()
	cold := func() (*run.Machine, error) {
		m, err := build()
		if err != nil {
			return nil, err
		}
		m.CPU.Interrupt = hook
		if err := b.Run(m.Machine, pages); err != nil {
			return nil, fmt.Errorf("%s (%s, %g pages): %w", b.Name(), m.BackendName(), pages, err)
		}
		m.CPU.Interrupt = nil
		return m, nil
	}
	cache := r.CheckpointCache()
	if cache == nil {
		m, err := cold()
		return m, false, err
	}
	var coldMachine *run.Machine
	ckpt, hit, err := cache.Do(key, func() (*radram.Checkpoint, error) {
		m, err := cold()
		if err != nil {
			return nil, err
		}
		coldMachine = m
		return m.Machine.Checkpoint(), nil
	})
	if err != nil {
		return nil, false, err
	}
	if !hit {
		return coldMachine, false, nil
	}
	// Branch: a fresh machine of the same shape adopts the cached final
	// state. Its metrics registry reads the restored components, so its
	// snapshot is byte-identical to the cold run's.
	m, err := build()
	if err != nil {
		return nil, false, err
	}
	if err := m.Machine.Restore(ckpt); err != nil {
		return nil, false, err
	}
	return m, true, nil
}

// measure builds the machine pair through the run layer, executes b on
// both (or branches either side from the runner's checkpoint cache), and
// extracts the paper's metrics. hits reports per machine — conventional
// then Active-Page — whether the state came from a checkpoint branch.
// When the runner tracks progress, the completed measurement — including
// its wall-clock cost and both checkpoint outcomes — is reported through
// run.Runner.NoteMeasure; the untracked path never reads the wall clock.
func measure(r *run.Runner, b Benchmark, cfg radram.Config, pages float64) (meas Measurement, conv, rad *run.Machine, hits [2]bool, err error) {
	if r.ProgressTracker() != nil {
		start := time.Now()
		defer func() {
			r.NoteMeasure(b.Name(), pages, cfg.BackendName(),
				r.CheckpointCache() != nil, hits[0], hits[1],
				start, time.Since(start), err)
		}()
	}
	conv, convHit, err := runMachine(r, b, pages,
		run.ConvCheckpointKey(b.Name(), pages, cfg),
		func() (*run.Machine, error) { return run.NewConventional(cfg), nil })
	if err != nil {
		return Measurement{}, nil, nil, hits, err
	}
	// Poll between the pair's runs so a cancellation arriving while the
	// conventional side was branching (no simulation to poll from) still
	// stops before the Active-Page simulation starts.
	if hook := r.InterruptHook(); hook != nil {
		if cerr := hook(); cerr != nil {
			return Measurement{}, nil, nil, hits, fmt.Errorf("run canceled: %w", cerr)
		}
	}
	rad, apHit, err := runMachine(r, b, pages,
		run.APCheckpointKey(b.Name(), pages, cfg),
		func() (*run.Machine, error) { return run.New(cfg) })
	if err != nil {
		return Measurement{}, nil, nil, hits, err
	}
	hits = [2]bool{convHit, apHit}

	meas = Measurement{
		Benchmark:  b.Name(),
		Pages:      pages,
		ConvTime:   conv.Elapsed(),
		RadTime:    rad.Elapsed(),
		NonOverlap: rad.CPU.Stats.NonOverlapFraction(),
	}

	// Per-page Table 4 metrics from the Active-Page system's ledger.
	var nPages uint64
	var actTotal, busyTotal sim.Duration
	for _, id := range KnownGroups {
		g, ok := rad.AP.Group(core.GroupID(id))
		if !ok {
			continue
		}
		for _, p := range g.Pages() {
			if p.Activations == 0 {
				continue
			}
			nPages++
			actTotal += p.ActivationTime
			busyTotal += p.BusyTime
		}
	}
	if nPages > 0 {
		meas.ActivationTime = actTotal / sim.Duration(nPages)
		meas.BusyTime = busyTotal / sim.Duration(nPages)
		// T_P: per-page processor time that is neither dispatch nor a
		// stall on page computation — post-activated work in the model of
		// Section 7.4 (result summarization, operand multiplies, cross-
		// page moves).
		st := rad.CPU.Stats
		post := st.TotalTime() - st.NonOverlapTime
		if post > actTotal {
			meas.PostTime = (post - actTotal) / sim.Duration(nPages)
		}
	}
	return meas, conv, rad, hits, nil
}

// KnownGroups lists every group id a benchmark may allocate, so Measure
// can walk per-page statistics without coupling to app internals.
var KnownGroups = []string{
	"array", "database", "median", "lcs", "matrix", "mpeg",
}
