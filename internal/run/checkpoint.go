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
	"sync"

	"activepages/internal/core"
	"activepages/internal/radram"
)

// DefaultCheckpointBudget bounds the cache's host memory. Store frames
// dominate checkpoint size; half a gigabyte holds every distinct quick-
// and reference-mode point of the paper suite with room to spare, while
// full-scale 256-page sweeps recycle through LRU eviction.
const DefaultCheckpointBudget = 512 << 20

// CheckpointCache deduplicates simulation runs by canonical key. It is
// safe for concurrent use from sweep workers: the first caller of a key
// simulates ("cold") while concurrent callers of the same key block until
// the checkpoint is ready ("hit"), so a parallel sweep does the same total
// simulation work as a serial one and produces identical merged metrics.
type CheckpointCache struct {
	mu      sync.Mutex
	budget  uint64
	total   uint64
	stamp   uint64
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	ready chan struct{}
	ckpt  *radram.Checkpoint
	err   error
	bytes uint64
	stamp uint64
	done  bool
}

// NewCheckpointCache returns a cache bounded to budgetBytes of checkpoint
// state (0 selects DefaultCheckpointBudget). Eviction is LRU over
// completed entries.
func NewCheckpointCache(budgetBytes uint64) *CheckpointCache {
	if budgetBytes == 0 {
		budgetBytes = DefaultCheckpointBudget
	}
	return &CheckpointCache{budget: budgetBytes, entries: make(map[string]*cacheEntry)}
}

// Do returns the checkpoint registered under key, running cold() to
// produce it if no run has stored one. hit reports whether the checkpoint
// came from the cache (including waiting out a concurrent cold run of the
// same key). A cold error is returned to every caller currently waiting on
// the key but is not cached: deterministic simulation errors will simply
// recur, while transient ones (cancellation) must not poison later runs.
func (c *CheckpointCache) Do(key string, cold func() (*radram.Checkpoint, error)) (ckpt *radram.Checkpoint, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stamp++
		e.stamp = c.stamp
		c.mu.Unlock()
		<-e.ready
		return e.ckpt, true, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.stamp++
	e.stamp = c.stamp
	c.entries[key] = e
	c.mu.Unlock()

	e.ckpt, e.err = cold()
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.bytes = e.ckpt.Bytes()
		e.done = true
		c.total += e.bytes
		c.evictLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
	return e.ckpt, false, e.err
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its budget, never evicting keep (the entry just stored) or entries
// whose cold run is still in flight.
func (c *CheckpointCache) evictLocked(keep *cacheEntry) {
	for c.total > c.budget {
		var victimKey string
		var victim *cacheEntry
		for k, e := range c.entries {
			if !e.done || e == keep {
				continue
			}
			if victim == nil || e.stamp < victim.stamp {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		c.total -= victim.bytes
		delete(c.entries, victimKey)
	}
}

// Len reports how many checkpoints are cached (including in-flight cold
// runs).
func (c *CheckpointCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
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
