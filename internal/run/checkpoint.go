// Checkpoint/branch support for sweeps. The paper's evaluation is a grid
// of points that differ in one knob: most points share their entire
// simulation with a sibling (fig3 and fig4 run the same machines; table4
// and the crossover study share every pair; the conventional side of the
// fig9/ablation sweeps never changes at all). The CheckpointCache keys a
// completed run's final machine state by the canonical configuration that
// produced it; a later run with the same key builds a fresh machine,
// restores the checkpoint, and reads its outcome — byte-identical to
// re-simulating. The restore shares the checkpoint's store frames and
// cache arrays copy-on-write, so a branch that only reads its outcome
// copies none of them. Simulate is the one place that decides between a
// cold run and a branch.

package run

import (
	"fmt"

	"activepages/internal/cache"
	"activepages/internal/core"
	"activepages/internal/lru"
	"activepages/internal/obs"
	"activepages/internal/proc"
	"activepages/internal/radram"
	"activepages/internal/sim"
)

// DefaultCheckpointBudget bounds the cache's host memory. Store frames
// dominate checkpoint size; half a gigabyte holds every distinct quick-
// and reference-mode point of the paper suite with room to spare, while
// full-scale 256-page sweeps recycle through LRU eviction.
const DefaultCheckpointBudget = 512 << 20

// CheckpointCache deduplicates simulation runs by canonical key. It is
// safe for concurrent use from sweep workers: Do's first caller of a key
// simulates ("cold") while concurrent callers of the same key block until
// the checkpoint is ready ("hit"), so a parallel sweep does the same total
// simulation work as a serial one and produces identical merged metrics.
// A cold error reaches the callers waiting on it but is not cached:
// deterministic simulation errors simply recur, while transient ones
// (cancellation) must not poison later points that share the cache. Both
// apbench and the daemon build one cache per run, so those later points
// belong to the same run.
type CheckpointCache = lru.Cache[string, *radram.Checkpoint]

// NewCheckpointCache returns a cache bounded to budgetBytes of checkpoint
// state (0 selects DefaultCheckpointBudget). Eviction is LRU over
// completed entries.
func NewCheckpointCache(budgetBytes uint64) *CheckpointCache {
	if budgetBytes == 0 {
		budgetBytes = DefaultCheckpointBudget
	}
	return lru.New[string](budgetBytes, (*radram.Checkpoint).Bytes)
}

// checkpointKey is the canonical checkpoint key of one machine run: the
// machine's kind, benchmark, problem size, and exactly the configuration
// that machine observes. No run reads the L1I, since tier (b) fetches no
// instructions, or the cache names, which label error messages only, so
// both are zeroed out of the key. A conventional machine observes no
// Active-Page knob but the page size: the backend, logic divisor,
// dispatch/interrupt costs and bind charging are zeroed too, so sweeps
// over those knobs share one conventional run per point — the
// prefix-key = config-minus-swept-knob rule. An Active-Page key names the
// backend's concrete type and parameters.
func checkpointKey(kind Kind, bench string, pages float64, cfg radram.Config) string {
	cfg.Mem.L1I = cache.Config{}
	cfg.Mem.L1D.Name, cfg.Mem.L2.Name = "", ""
	if kind == Conventional {
		cfg.AP = core.Config{PageBytes: cfg.AP.PageBytes}
	}
	b := cfg.AP.Backend
	cfg.AP.Backend = nil
	return fmt.Sprintf("%d|%T%+v|%s|%g|cpu%+v|mem%+v|ap%+v", kind, b, b, bench, pages, cfg.CPU, cfg.Mem, cfg.AP)
}

// Workload is a benchmark kernel as Simulate runs it: its name keys the
// run, and Run executes it on a machine — conventional when m.AP is nil —
// sized to a problem size in pages. apps.Benchmark satisfies it.
type Workload interface {
	Name() string
	Run(m *radram.Machine, pages float64) error
}

// Kind selects which machine of a measured pair Simulate runs: the one
// with a conventional memory system, or the one with the configuration's
// Active-Page backend.
type Kind int

// The two machines of a measured pair.
const (
	Conventional Kind = iota
	ActivePage
)

// Outcome is everything a measurement reads from one finished machine run.
type Outcome struct {
	// Elapsed is the run's simulated execution time.
	Elapsed sim.Time
	// Stats is the processor's ledger.
	Stats proc.Stats
	// Pages counts the Active Pages activated at least once, and
	// ActivationTime and BusyTime sum their T_A and T_C (Table 4). All
	// three are zero on a conventional machine.
	Pages          uint64
	ActivationTime sim.Duration
	BusyTime       sim.Duration
	// Snapshot is the machine's metrics, taken only when the runner
	// collects metrics. With a checkpoint cache attached it carries the
	// run's diag.checkpoint_* event: checkpoint_cold, or checkpoint_hit
	// plus checkpoint_branch.
	Snapshot obs.Snapshot
	// Checkpoint is how the run was satisfied: "cold" (a full simulation
	// ran, or failed), "branch" (a cached final state was restored), or
	// "" when the runner carries no checkpoint cache or the machine never
	// ran.
	Checkpoint string
}

// Simulate runs w at the given problem size on a fresh machine of the
// given kind built from cfg and returns its outcome. With a checkpoint
// cache attached, the first run of a canonical key simulates cold and is
// checkpointed, and every other run of the key — a caller waiting on that
// cold run included — builds a fresh machine and restores the cached
// final state instead. The runner's context is checked before the run, so
// a canceled sweep stops between machine runs with a "run canceled" error.
// A nil runner simulates cold, uncancelable and unobserved.
func (r *Runner) Simulate(w Workload, kind Kind, cfg radram.Config, pages float64) (out Outcome, err error) {
	if err := r.interrupted(); err != nil {
		return out, fmt.Errorf("run canceled: %w", err)
	}
	build := func() (*Machine, error) { return NewConventional(cfg), nil }
	if kind == ActivePage {
		build = func() (*Machine, error) { return New(cfg) }
	}
	cold := func() (*Machine, error) {
		m, err := build()
		if err != nil {
			return nil, err
		}
		if err := w.Run(m.Machine, pages); err != nil {
			return nil, fmt.Errorf("%s (%s, %g pages): %w", w.Name(), m.BackendName(), pages, err)
		}
		return m, nil
	}
	if r == nil || r.Checkpoints == nil {
		m, err := cold()
		if err != nil {
			return out, err
		}
		return r.outcome(m, ""), nil
	}
	var m *Machine
	ckpt, hit, err := r.Checkpoints.Do(checkpointKey(kind, w.Name(), pages, cfg), func() (*radram.Checkpoint, error) {
		out.Checkpoint = "cold"
		var err error
		if m, err = cold(); err != nil {
			return nil, err
		}
		return m.Machine.Checkpoint(), nil
	})
	if err != nil {
		return out, err
	}
	if !hit {
		return r.outcome(m, "cold"), nil
	}
	// Branch: a fresh machine of the same shape adopts the cached final
	// state. Its metrics registry reads the restored components, so its
	// outcome is identical to the cold run's.
	if m, err = build(); err != nil {
		return out, err
	}
	if err := m.Machine.Restore(ckpt); err != nil {
		return out, err
	}
	return r.outcome(m, "branch"), nil
}

// outcome reads what a measurement needs from a finished machine; how is
// the run's Outcome.Checkpoint.
func (r *Runner) outcome(m *Machine, how string) Outcome {
	out := Outcome{Elapsed: m.Elapsed(), Stats: m.CPU.Stats, Checkpoint: how}
	if m.AP != nil {
		out.Pages, out.ActivationTime, out.BusyTime = m.AP.Table4Totals()
	}
	if r == nil || r.Metrics == nil {
		return out
	}
	out.Snapshot = m.Snapshot()
	switch how {
	case "cold":
		out.Snapshot[obs.DiagPrefix+"checkpoint_cold"]++
	case "branch":
		out.Snapshot[obs.DiagPrefix+"checkpoint_hit"]++
		out.Snapshot[obs.DiagPrefix+"checkpoint_branch"]++
	}
	return out
}
