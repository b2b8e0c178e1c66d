package core

import (
	"activepages/internal/obs"
	"activepages/internal/sim"
)

// groupCheckpoint captures one page group. Function sets are shared by
// reference: Bind installs a freshly built map and never mutates one in
// place, so a captured map is immutable from the checkpoint's point of
// view. Pages are copied by value in allocation order.
type groupCheckpoint struct {
	id    GroupID
	fns   map[string]Function
	pages []Page
}

// Checkpoint is a deep-copy snapshot of the Active-Page system's simulated
// state: every group with its pages (completion times, written ranges,
// Table 4 accounting), the owed mediation work, the system statistics, and
// the dispatch/completion histograms.
type Checkpoint struct {
	groups           []groupCheckpoint
	pendingMediation sim.Duration
	stats            Stats
	dispatchHist     obs.HistCheckpoint
	completionHist   obs.HistCheckpoint
}

// Bytes estimates the checkpoint's host-memory footprint, for cache
// accounting.
func (c *Checkpoint) Bytes() uint64 {
	var pages uint64
	for i := range c.groups {
		pages += uint64(len(c.groups[i].pages))
	}
	return pages*128 + uint64(len(c.groups))*64
}

// Checkpoint captures the system state. Group capture order follows map
// iteration and is not deterministic; nothing observable depends on it —
// Restore rebuilds the id- and index-keyed maps, and every ordered
// traversal in the model walks a group's pages slice, whose order is
// preserved.
func (s *System) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		groups:           make([]groupCheckpoint, 0, len(s.groups)),
		pendingMediation: s.pendingMediation,
		stats:            s.Stats,
		dispatchHist:     s.dispatchHist.Checkpoint(),
		completionHist:   s.completionHist.Checkpoint(),
	}
	for _, g := range s.groups {
		gc := groupCheckpoint{id: g.id, fns: g.fns, pages: make([]Page, len(g.pages))}
		for i, p := range g.pages {
			gc.pages[i] = *p
		}
		c.groups = append(c.groups, gc)
	}
	return c
}

// Restore overwrites the system state with a checkpoint taken from a
// system of the same configuration, rebuilding the group and page indexes
// and each page's group back-pointer.
func (s *System) Restore(c *Checkpoint) {
	s.groups = make(map[GroupID]*Group, len(c.groups))
	s.pages = make(map[uint64]*Page, len(s.pages))
	for gi := range c.groups {
		gc := &c.groups[gi]
		g := &Group{id: gc.id, fns: gc.fns, pages: make([]*Page, len(gc.pages))}
		for i := range gc.pages {
			p := new(Page)
			*p = gc.pages[i]
			p.group = g
			g.pages[i] = p
			s.pages[p.Index] = p
		}
		s.groups[gc.id] = g
	}
	s.pendingMediation = c.pendingMediation
	s.Stats = c.stats
	s.dispatchHist.Restore(c.dispatchHist)
	s.completionHist.Restore(c.completionHist)
}
