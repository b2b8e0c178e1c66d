// Package pager models the operating-system integration the paper's
// Section 10 lays out: Active Pages are "similar to both memory pages and
// parallel processors", and the OS must manage a fixed set of resident
// superpage frames with replacement.
//
// The model is an LRU-managed resident set backed by a disk. Swapping any
// page costs the disk transfer; swapping in an *Active* page additionally
// reloads its bound function's configuration bitstream through the serial
// configuration port — the paper's "high cost of swapping Active Pages to
// and from disk", estimated at 2-4x a conventional page replacement
// (Section 6). Faster reconfigurable technologies ([DeH96a]) are modeled
// by raising the configuration bandwidth.
package pager

import (
	"container/list"
	"fmt"

	"activepages/internal/logic"
	"activepages/internal/sim"
)

// Config describes the paging hardware.
type Config struct {
	// ResidentPages is the number of physical superpage frames.
	ResidentPages int
	// PageBytes is the superpage size.
	PageBytes uint64
	// DiskLatency is the per-transfer positioning cost (seek + rotation).
	DiskLatency sim.Duration
	// DiskBandwidthBps is the sustained transfer rate in bytes/second.
	DiskBandwidthBps uint64
	// SerialConfigBps is the configuration-port bandwidth for bitstream
	// reloads.
	SerialConfigBps uint64
}

// DefaultConfig returns a period-appropriate disk (8 ms positioning,
// 10 MB/s) and configuration port under the reference 512 KB pages.
func DefaultConfig(residentPages int) Config {
	return Config{
		ResidentPages:    residentPages,
		PageBytes:        512 * 1024,
		DiskLatency:      8 * sim.Millisecond,
		DiskBandwidthBps: 10_000_000,
		SerialConfigBps:  logic.DefaultSerialConfigBps,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ResidentPages < 1 {
		return fmt.Errorf("pager: resident set must hold at least one page")
	}
	if c.PageBytes == 0 {
		return fmt.Errorf("pager: zero page size")
	}
	if c.DiskBandwidthBps == 0 {
		return fmt.Errorf("pager: zero disk bandwidth")
	}
	return nil
}

// Stats accumulates paging activity.
type Stats struct {
	Accesses     uint64
	Faults       uint64
	Evictions    uint64
	TransferTime sim.Duration // disk traffic
	ReconfigTime sim.Duration // bitstream reloads for Active Pages
}

// FaultRate is faults per access.
func (s Stats) FaultRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Faults) / float64(s.Accesses)
}

type frame struct {
	page    uint64
	active  bool
	codeLen int
}

// Pager is the resident-set manager.
type Pager struct {
	cfg Config
	// resident maps page number to its LRU-list element.
	resident map[uint64]*list.Element
	lru      *list.List // front = most recent
	Stats    Stats
}

// New builds a pager. It panics on an invalid configuration.
func New(cfg Config) *Pager {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Pager{cfg: cfg, resident: make(map[uint64]*list.Element), lru: list.New()}
}

// Config returns the pager configuration.
func (p *Pager) Config() Config { return p.cfg }

// Resident reports whether a page is in memory.
func (p *Pager) Resident(page uint64) bool {
	_, ok := p.resident[page]
	return ok
}

// ResidentCount returns how many frames are occupied.
func (p *Pager) ResidentCount() int { return p.lru.Len() }

// transferTime is the cost to move one page to or from disk.
func (p *Pager) transferTime() sim.Duration {
	return p.cfg.DiskLatency +
		sim.Duration(p.cfg.PageBytes*uint64(sim.Second)/p.cfg.DiskBandwidthBps)
}

// Touch records an access to page. If the page is not resident it faults:
// the LRU victim is evicted (written back), the page is read from disk,
// and — when the page is an Active Page with a bound function of
// bitstreamBytes — its configuration is reloaded. The returned duration is
// the fault service time (zero on a hit).
func (p *Pager) Touch(page uint64, active bool, bitstreamBytes int) sim.Duration {
	p.Stats.Accesses++
	if el, ok := p.resident[page]; ok {
		p.lru.MoveToFront(el)
		return 0
	}
	p.Stats.Faults++
	var cost sim.Duration

	if p.lru.Len() >= p.cfg.ResidentPages {
		victim := p.lru.Back()
		vf := victim.Value.(frame)
		delete(p.resident, vf.page)
		p.lru.Remove(victim)
		p.Stats.Evictions++
		// Write the victim back. (A dirty-bit optimization is possible;
		// Active-Page data is always presumed dirty — the memory computes.)
		wb := p.transferTime()
		cost += wb
		p.Stats.TransferTime += wb
	}

	in := p.transferTime()
	cost += in
	p.Stats.TransferTime += in
	if active && bitstreamBytes > 0 && p.cfg.SerialConfigBps > 0 {
		rc := sim.Duration(uint64(bitstreamBytes) * 8 * uint64(sim.Second) / p.cfg.SerialConfigBps)
		cost += rc
		p.Stats.ReconfigTime += rc
	}
	p.resident[page] = p.lru.PushFront(frame{page: page, active: active, codeLen: bitstreamBytes})
	return cost
}

// RunTrace replays an access trace and returns the total fault-service
// time; each entry is a page number. When active is set every page carries
// a bound function of bitstreamBytes.
func (p *Pager) RunTrace(trace []uint64, active bool, bitstreamBytes int) sim.Duration {
	var total sim.Duration
	for _, pg := range trace {
		total += p.Touch(pg, active, bitstreamBytes)
	}
	return total
}
