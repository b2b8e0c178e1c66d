// Checkpoint/branch support for sweeps. The paper's evaluation is a grid
// of points that differ in one knob: most points share their entire
// simulation with a sibling (fig3 and fig4 run the same machines; table4
// and the crossover study share every pair; the conventional side of the
// fig9/ablation sweeps never changes at all). The CheckpointCache keys a
// completed run's final machine state by the canonical configuration that
// produced it; a later point with the same key builds a fresh machine,
// restores the checkpoint, and reads its measurements — byte-identical to
// re-simulating. The restore shares the checkpoint's store frames and
// cache arrays copy-on-write, so a branch that only reads its
// measurements copies none of them.

package run

import (
	"fmt"

	"activepages/internal/core"
	"activepages/internal/lru"
	"activepages/internal/radram"
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

// ConvCheckpointKey is the canonical checkpoint key of a conventional-
// machine run: benchmark, problem size, and exactly the configuration a
// conventional machine observes. Every Active-Page-only knob (backend,
// logic divisor, dispatch/interrupt costs, bind charging) is zeroed out of
// the key, so sweeps over those knobs share one conventional run per
// point — the prefix-key = config-minus-swept-knob rule.
func ConvCheckpointKey(bench string, pages float64, cfg radram.Config) string {
	ap := core.Config{PageBytes: cfg.AP.PageBytes}
	return fmt.Sprintf("conv|%s|%g|cpu%+v|mem%+v|ap%+v", bench, pages, cfg.CPU, cfg.Mem, ap)
}

// APCheckpointKey is the canonical checkpoint key of an Active-Page
// machine run: benchmark, problem size, the full configuration, and the
// backend's concrete type and parameters (a nil backend normalizes to the
// RADram cost model, matching radram.New).
func APCheckpointKey(bench string, pages float64, cfg radram.Config) string {
	b := cfg.AP.Backend
	if b == nil {
		b = radram.CostModel{}
	}
	ap := cfg.AP
	ap.Backend = nil
	return fmt.Sprintf("ap|%T%+v|%s|%g|cpu%+v|mem%+v|ap%+v", b, b, bench, pages, cfg.CPU, cfg.Mem, ap)
}
