// Fold support: open-row state accessors and closed-form statistics
// advancement for the stream-folding layer in package memsys.
//
// The folding layer records one period's DRAM accesses as an (address,
// row-hit) list via the OnAccess hook, verifies that consecutive periods
// repeat the list translated by the period's address delta (a multiple of
// SubarrayBytes, so subarray indices shift uniformly and row indices —
// which are subarray-relative — are unchanged), and then fast-forwards: it
// multiplies the statistics and latency-histogram deltas and replays only
// the open-row state the folded periods would have left, using the
// accessors below. lastSub/lastRow need no special treatment beyond
// SetLast: the access path keeps them consistent with the open-row table,
// so they are a pure lookup cache with no independent observable state.
package dram

import "activepages/internal/obs"

// SubarrayBytes returns the subarray size.
func (d *Device) SubarrayBytes() uint64 { return d.cfg.SubarrayBytes }

// Row returns the subarray-relative row index of addr.
func (d *Device) Row(addr uint64) int64 {
	return int64((addr & d.subMask) >> d.rowShift)
}

// OpenRow reports the open row of subarray sub, or -1 when closed or never
// touched. It does not disturb any state.
func (d *Device) OpenRow(sub uint64) int64 {
	if sub < maxDenseSubarrays {
		if sub < uint64(len(d.openRow)) {
			return d.openRow[sub]
		}
		return -1
	}
	if open, ok := d.overflow[sub]; ok {
		return int64(open)
	}
	return -1
}

// SetOpenRow records row as the open row of subarray sub, exactly as an
// access to that row would have, without touching statistics or the
// last-access cache.
func (d *Device) SetOpenRow(sub uint64, row int64) {
	if sub < maxDenseSubarrays {
		if sub >= uint64(len(d.openRow)) {
			d.growDense(sub)
		}
		d.openRow[sub] = row
		return
	}
	if d.overflow == nil {
		d.overflow = make(map[uint64]uint64)
	}
	d.overflow[sub] = uint64(row)
}

// SetLast installs the last-access cache as an access to addr would have
// left it. The caller must have already recorded addr's row as open via
// SetOpenRow, preserving the invariant that the cache mirrors the table.
func (d *Device) SetLast(addr uint64) {
	d.lastSub = addr >> d.subShift
	d.lastRow = d.Row(addr)
	d.haveLast = true
}

// AddFoldStats adds periods repetitions of the per-period statistics delta.
// The latency histogram is advanced separately via AddHistDelta.
func (d *Device) AddFoldStats(delta Stats, periods uint64) {
	d.Stats.Accesses += delta.Accesses * periods
	d.Stats.RowHits += delta.RowHits * periods
	d.Stats.RowMisses += delta.RowMisses * periods
	d.Stats.Refreshes += delta.Refreshes * periods
}

// StatsDelta returns s minus prev, element-wise.
func (s Stats) StatsDelta(prev Stats) Stats {
	return Stats{
		Accesses:  s.Accesses - prev.Accesses,
		RowHits:   s.RowHits - prev.RowHits,
		RowMisses: s.RowMisses - prev.RowMisses,
		Refreshes: s.Refreshes - prev.Refreshes,
	}
}

// HistCheckpoint captures the access-latency histogram's contents.
func (d *Device) HistCheckpoint() obs.HistCheckpoint { return d.hist.Checkpoint() }

// AddHistDelta replays a checkpoint delta times over into the
// access-latency histogram.
func (d *Device) AddHistDelta(delta obs.HistCheckpoint, times uint64) {
	d.hist.AddDelta(delta, times)
}
