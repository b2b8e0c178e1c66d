package memsys

import (
	"activepages/internal/bus"
	"activepages/internal/cache"
	"activepages/internal/dram"
	"activepages/internal/obs"
)

// Checkpoint is a snapshot of the hierarchy's full simulated state: every
// cache's replacement state, the bus and DRAM state, the uncached-access
// count, the fold-decision diagnostics, and both latency histograms. The
// cache arrays are shared copy-on-write with the hierarchy (see
// cache.Checkpoint); the rest is copied. The fold scratch is not captured —
// it is per-stream working memory, dead between StreamRun calls.
type Checkpoint struct {
	l1i, l1d, l2     cache.Checkpoint
	bus              bus.Checkpoint
	dram             dram.Checkpoint
	uncachedAccesses uint64
	folds            FoldStats
	fillHist         obs.HistCheckpoint
	uncachedHist     obs.HistCheckpoint
}

// Bytes estimates the checkpoint's host-memory footprint, for cache
// accounting. Cache snapshots dominate alongside the DRAM row table.
func (c *Checkpoint) Bytes() uint64 {
	return c.l1i.Bytes() + c.l1d.Bytes() + c.l2.Bytes() + c.dram.Bytes()
}

// Checkpoint captures the hierarchy state into ck.
func (h *Hierarchy) Checkpoint(ck *Checkpoint) {
	ck.l1i = h.L1I.Checkpoint()
	ck.l1d = h.L1D.Checkpoint()
	ck.l2 = h.L2.Checkpoint()
	ck.bus = h.Bus.Checkpoint()
	ck.dram = h.DRAM.Checkpoint()
	ck.uncachedAccesses = h.UncachedAccesses
	ck.folds = h.Folds
	ck.fillHist = h.fillHist.Checkpoint()
	ck.uncachedHist = h.uncachedHist.Checkpoint()
}

// Restore overwrites the hierarchy state with a checkpoint taken from a
// hierarchy of identical configuration.
func (h *Hierarchy) Restore(ck *Checkpoint) {
	h.L1I.Restore(ck.l1i)
	h.L1D.Restore(ck.l1d)
	h.L2.Restore(ck.l2)
	h.Bus.Restore(ck.bus)
	h.DRAM.Restore(ck.dram)
	h.UncachedAccesses = ck.uncachedAccesses
	h.Folds = ck.folds
	h.fillHist.Restore(ck.fillHist)
	h.uncachedHist.Restore(ck.uncachedHist)
}
