// Package dram models the DRAM device underlying RADram: a large DRAM
// divided into 512 KB subarrays, each with its own row decoder (Itoh et
// al., cited as [I+97] in the paper). Row-buffer locality inside a subarray
// makes sequential access cheaper than random access, and each subarray is
// the unit to which RADram attaches a block of reconfigurable logic.
package dram

import (
	"fmt"
	"math/bits"

	"activepages/internal/obs"
	"activepages/internal/sim"
)

// Config describes the DRAM device.
type Config struct {
	// SubarrayBytes is the size of one subarray (paper: 512 KB).
	SubarrayBytes uint64
	// RowBytes is the size of one DRAM row within a subarray.
	RowBytes uint64
	// AccessTime is the full random-access (row miss) latency. This is the
	// "cache miss" memory component of Table 1 (50 ns reference, varied
	// 0-600 ns in Figure 8).
	AccessTime sim.Duration
	// RowHitTime is the latency when the addressed row is already open.
	RowHitTime sim.Duration
}

// DefaultConfig returns the paper's reference DRAM: 512 KB subarrays, 50 ns
// access, with a 2 KB row.
func DefaultConfig() Config {
	return Config{
		SubarrayBytes: 512 * 1024,
		RowBytes:      2048,
		AccessTime:    50 * sim.Nanosecond,
		RowHitTime:    20 * sim.Nanosecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SubarrayBytes == 0 || c.SubarrayBytes&(c.SubarrayBytes-1) != 0 {
		return fmt.Errorf("dram: subarray size %d not a power of two", c.SubarrayBytes)
	}
	if c.RowBytes == 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d not a power of two", c.RowBytes)
	}
	if c.RowBytes > c.SubarrayBytes {
		return fmt.Errorf("dram: row size %d exceeds subarray size %d", c.RowBytes, c.SubarrayBytes)
	}
	if c.RowHitTime > c.AccessTime && c.AccessTime != 0 {
		// A zero AccessTime is allowed: Figure 8's sweep starts at 0 ns.
		return fmt.Errorf("dram: row hit time %v exceeds access time %v", c.RowHitTime, c.AccessTime)
	}
	return nil
}

// Stats accumulates device activity.
type Stats struct {
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
	Refreshes uint64
}

// maxDenseSubarrays caps the lazily-grown dense open-row table. With the
// paper's 64 KB scaled subarrays this covers an 8 GB address space in 1 MB
// of host memory; anything beyond spills to the overflow map.
const maxDenseSubarrays = 1 << 17

// Device is the DRAM timing model. Contents live in the mem.Store; the
// device tracks only open rows per subarray.
type Device struct {
	cfg Config
	// openRow holds each subarray's open row index, -1 when closed. It is a
	// lazily-grown dense slice indexed by subarray number; subarrays past
	// maxDenseSubarrays live in overflow instead.
	openRow  []int64
	overflow map[uint64]uint64
	// lastSub/lastRow cache the most recent access: sequential sweeps hit
	// the same row repeatedly and never touch the table.
	lastSub  uint64
	lastRow  int64
	haveLast bool
	// subShift/rowShift/subMask precompute the power-of-two address splits.
	subShift uint
	rowShift uint
	subMask  uint64
	Stats    Stats
	// hist records every access's latency (registered as "<prefix>.access"
	// by Observe).
	hist *obs.Histogram
	// OnAccess, when set, is invoked after every access with the address,
	// whether the row was open, and the access latency — the tracing and
	// stream-recording hook. It must be nil otherwise so the access path
	// pays only a nil check.
	OnAccess func(addr uint64, rowHit bool, d sim.Duration)
}

// New builds a device. It panics on an invalid configuration.
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Device{
		cfg:      cfg,
		subShift: uint(bits.TrailingZeros64(cfg.SubarrayBytes)),
		rowShift: uint(bits.TrailingZeros64(cfg.RowBytes)),
		subMask:  cfg.SubarrayBytes - 1,
		hist:     obs.NewHistogram(),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Observe registers the device's counters under prefix (e.g. "mem.dram").
func (d *Device) Observe(r *obs.Registry, prefix string) {
	r.Counter(prefix+".accesses", func() uint64 { return d.Stats.Accesses })
	r.Counter(prefix+".row_hits", func() uint64 { return d.Stats.RowHits })
	r.Counter(prefix+".row_misses", func() uint64 { return d.Stats.RowMisses })
	r.Counter(prefix+".refreshes", func() uint64 { return d.Stats.Refreshes })
	r.Histogram(prefix+".access", d.hist)
}

// Subarray returns the subarray index containing addr.
func (d *Device) Subarray(addr uint64) uint64 { return addr >> d.subShift }

// AccessTime returns the latency to access the row containing addr and
// updates the open-row state. A zero-AccessTime configuration (Figure 8's
// leftmost point) reports zero for both hit and miss.
func (d *Device) AccessTime(addr uint64) sim.Duration {
	d.Stats.Accesses++
	if d.cfg.AccessTime == 0 {
		d.hist.Observe(0)
		if d.OnAccess != nil {
			d.OnAccess(addr, true, 0)
		}
		return 0
	}
	sub := addr >> d.subShift
	row := int64((addr & d.subMask) >> d.rowShift)
	if d.haveLast && sub == d.lastSub && row == d.lastRow {
		return d.rowHit(addr)
	}
	d.lastSub, d.lastRow, d.haveLast = sub, row, true
	if sub < maxDenseSubarrays {
		if sub >= uint64(len(d.openRow)) {
			d.growDense(sub)
		}
		if d.openRow[sub] == row {
			return d.rowHit(addr)
		}
		d.openRow[sub] = row
	} else {
		if d.overflow == nil {
			d.overflow = make(map[uint64]uint64)
		}
		if open, ok := d.overflow[sub]; ok && open == uint64(row) {
			return d.rowHit(addr)
		}
		d.overflow[sub] = uint64(row)
	}
	d.Stats.RowMisses++
	d.hist.Observe(d.cfg.AccessTime)
	if d.OnAccess != nil {
		d.OnAccess(addr, false, d.cfg.AccessTime)
	}
	return d.cfg.AccessTime
}

// rowHit accounts one open-row access to addr.
func (d *Device) rowHit(addr uint64) sim.Duration {
	d.Stats.RowHits++
	d.hist.Observe(d.cfg.RowHitTime)
	if d.OnAccess != nil {
		d.OnAccess(addr, true, d.cfg.RowHitTime)
	}
	return d.cfg.RowHitTime
}

// growDense extends the dense open-row table to cover sub, doubling so
// growth is amortized, with new entries closed (-1).
func (d *Device) growDense(sub uint64) {
	n := uint64(len(d.openRow))
	if n == 0 {
		n = 64
	}
	for n <= sub {
		n *= 2
	}
	n = min(n, maxDenseSubarrays)
	grown := make([]int64, n)
	copy(grown, d.openRow)
	for i := len(d.openRow); i < int(n); i++ {
		grown[i] = -1
	}
	d.openRow = grown
}

// CloseAll closes every open row (e.g. after a refresh burst).
func (d *Device) CloseAll() {
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	clear(d.overflow)
	d.haveLast = false
}
