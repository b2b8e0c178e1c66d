package radram

import (
	"errors"

	"activepages/internal/core"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/proc"
)

// errShapeMismatch guards against restoring a conventional checkpoint into
// an Active-Page machine or vice versa.
var errShapeMismatch = errors.New("radram: checkpoint/machine shape mismatch (conventional vs active-page)")

// Checkpoint is a snapshot of a whole machine's simulated state: store
// contents, memory-hierarchy state, processor ledger, and (on an
// Active-Page machine) the Active-Page system. Restoring it into a machine
// built from the same configuration resumes simulation byte-identically —
// in timing, statistics, histograms, and data — which is what lets a sweep
// simulate a shared warm-up prefix once and branch every point from the
// checkpoint. Store frames and cache arrays are shared copy-on-write with
// the source machine and with every machine restored from the checkpoint
// (see mem.Checkpoint and cache.Checkpoint); the remaining, small state is
// copied. Either way the checkpoint never changes.
type Checkpoint struct {
	store mem.Checkpoint
	hier  memsys.Checkpoint
	cpu   proc.Checkpoint
	// ap is nil for a conventional machine's checkpoint.
	ap *core.Checkpoint
}

// Bytes estimates the checkpoint's host-memory footprint, for cache
// accounting: the full frames and arrays it keeps alive, whether or not a
// machine still shares them. Store frames dominate.
func (c *Checkpoint) Bytes() uint64 {
	n := c.store.Bytes() + c.hier.Bytes()
	if c.ap != nil {
		n += c.ap.Bytes()
	}
	return n
}

// Checkpoint captures the machine's full simulated state.
func (m *Machine) Checkpoint() *Checkpoint {
	c := &Checkpoint{store: m.Store.Checkpoint(), cpu: m.CPU.Checkpoint()}
	m.Hier.Checkpoint(&c.hier)
	if m.AP != nil {
		c.ap = m.AP.Checkpoint()
	}
	return c
}

// Restore overwrites the machine's simulated state with a checkpoint taken
// from a machine of identical configuration. The checkpoint is not
// consumed: one checkpoint can seed any number of branch machines.
func (m *Machine) Restore(c *Checkpoint) error {
	if (m.AP == nil) != (c.ap == nil) {
		return errShapeMismatch
	}
	m.Store.Restore(c.store)
	m.Hier.Restore(&c.hier)
	m.CPU.Restore(c.cpu)
	if m.AP != nil {
		m.AP.Restore(c.ap)
	}
	return nil
}
