package proc

import "activepages/internal/sim"

// Checkpoint is a value snapshot of the processor's simulated state: the
// clock position and the time/operation ledger. Everything else on the CPU
// is configuration or host-side scratch.
type Checkpoint struct {
	now   sim.Time
	stats Stats
}

// Checkpoint captures the processor state.
func (c *CPU) Checkpoint() Checkpoint {
	return Checkpoint{now: c.now, stats: c.Stats}
}

// Restore overwrites the processor state with a checkpoint taken from a
// CPU of the same configuration.
func (c *CPU) Restore(ck Checkpoint) {
	c.now = ck.now
	c.Stats = ck.stats
}
