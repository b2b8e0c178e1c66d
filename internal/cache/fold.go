// Fold support: state snapshots and the shifted-state verification and
// fast-forward used by the stream-folding layer in package memsys.
//
// A fixed-stride access stream whose period advances every address by a
// multiple Δ of the cache's set span (nsets · LineBytes) maps onto the same
// sets every period with tags shifted by exactly Δ / span. When one period
// leaves a touched set holding precisely the previous period's lines with
// tags advanced by that shift and LRU stamps advanced by the period's clock
// increment — in any way order — the cache's behavior over the next period
// is the previous period's behavior translated by Δ: hit/miss outcomes, the
// victim choices, writeback addresses (shifted by Δ), MRU fast-path
// outcomes, and statistics increments all repeat. Way order is free because
// every observable of the model (victim selection by minimum stamp,
// writeback address, MRU correspondence) is invariant under permuting a
// set's ways, and stamps within a set are distinct, so the value-matching
// below identifies a unique correspondence.
//
// The verification is the soundness condition: it admits only sets whose
// every valid line is part of the advancing conveyor. A stationary valid
// line in a touched set — one the stream did not install this period —
// fails the shifted match (Δ/span >= 1, so its unshifted tag has no
// partner) and forces the caller back to the scalar path. That is
// deliberate: a stationary line's fixed stamp decays in rank as the
// conveyor's stamps advance and would eventually be chosen as a victim
// during a fast-forwarded period that a two-period comparison cannot
// witness.
package cache

import (
	"math"
	"math/bits"
)

// NumSets returns the number of sets.
func (c *Cache) NumSets() uint64 { return c.nsets }

// SetsPow2 reports whether the set count is a power of two. The folding
// layer requires it: only then does a span-aligned address delta shift tags
// without remixing set indices.
func (c *Cache) SetsPow2() bool { return c.setsPow2 }

// SetSpan is the address distance at which lines map to the same set:
// nsets · LineBytes. Two addresses differing by a multiple of the span
// share a set index, and their tags differ by delta/span.
func (c *Cache) SetSpan() uint64 { return c.nsets * c.cfg.LineBytes }

// SetIndex returns the set index of the line containing addr.
func (c *Cache) SetIndex(addr uint64) uint64 {
	set, _ := c.locate(addr)
	return set
}

// FoldSnapshot is a reusable value copy of a cache's replacement state,
// captured at stream period boundaries. Unlike a Checkpoint it owns its
// arrays: the fold compares it against a cache that keeps changing.
type FoldSnapshot struct {
	lines []line
	mru   []int32
	clock uint64
	stats Stats
}

// Stats returns the statistics captured with the snapshot.
func (s *FoldSnapshot) Stats() Stats { return s.stats }

// Clock returns the LRU clock captured with the snapshot.
func (s *FoldSnapshot) Clock() uint64 { return s.clock }

// SnapshotInto copies the cache's full replacement state into s, reusing
// s's buffers when they are large enough.
func (c *Cache) SnapshotInto(s *FoldSnapshot) {
	if cap(s.lines) < len(c.lines) {
		s.lines = make([]line, len(c.lines))
	}
	s.lines = s.lines[:len(c.lines)]
	copy(s.lines, c.lines)
	if cap(s.mru) < int(c.nsets) {
		s.mru = make([]int32, c.nsets)
	}
	s.mru = s.mru[:c.nsets]
	copy(s.mru, c.mru)
	s.clock = c.clock
	s.stats = c.Stats
}

// touchedBit reports whether set s is marked in the bitmap.
func touchedBit(touched []uint64, s uint64) bool {
	return touched[s>>6]&(1<<(s&63)) != 0
}

// VerifyFoldShift reports whether the cache's current state is prev
// advanced by exactly one stream period: every set marked in the touched
// bitmap (one bit per set) holds the previous snapshot's valid lines with
// tags advanced by tagShift and LRU stamps by clockDelta — way placement
// free, dirty bits preserved, MRU correspondence maintained — and every
// unmarked set is untouched. tagShift is signed to support descending
// streams (tags advance downward); arithmetic wraps identically on both
// sides of the comparison.
func (c *Cache) VerifyFoldShift(prev *FoldSnapshot, touched []uint64, tagShift int64, clockDelta uint64) bool {
	assoc := c.assoc
	if len(prev.lines) != len(c.lines) || c.clock-prev.clock != clockDelta {
		return false
	}
	var used [64]bool
	if assoc > uint64(len(used)) {
		return false
	}
	for s := uint64(0); s < c.nsets; s++ {
		cur := c.ways(s)
		old := prev.lines[s*assoc : (s+1)*assoc]
		if !touchedBit(touched, s) {
			for i := range cur {
				if cur[i] != old[i] {
					return false
				}
			}
			if c.mru[s] != prev.mru[s] {
				return false
			}
			continue
		}
		// Touched set: multiset match of valid lines under the shift.
		for i := range used[:assoc] {
			used[i] = false
		}
		nOld, nCur := 0, 0
		for i := range cur {
			if cur[i].valid {
				nCur++
			}
		}
		for i := range old {
			if !old[i].valid {
				continue
			}
			nOld++
			want := old[i].tag + uint64(tagShift)
			wantLRU := old[i].lru + clockDelta
			found := false
			for j := range cur {
				if !used[j] && cur[j].valid && cur[j].tag == want &&
					cur[j].lru == wantLRU && cur[j].dirty == old[i].dirty {
					used[j] = true
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		if nOld != nCur {
			return false
		}
		// MRU correspondence: the most-recently-used way must point at the
		// shifted image of the previous MRU line (or at an invalid way on
		// both sides — AccessFast misses either way).
		pm, cm := old[prev.mru[s]], cur[c.mru[s]]
		if pm.valid != cm.valid {
			return false
		}
		if pm.valid && (cm.tag != pm.tag+uint64(tagShift) || cm.lru != pm.lru+clockDelta) {
			return false
		}
	}
	return true
}

// ApplyFoldShift fast-forwards the cache by periods further stream periods:
// every valid line in a touched set advances its tag by periods·tagShift
// and its stamp by periods·clockDelta, and the LRU clock advances the same
// way. Statistics are advanced separately via AddFoldStats. The filled
// extent widens by the lines' address shift (see widenExtent).
func (c *Cache) ApplyFoldShift(touched []uint64, tagShift int64, clockDelta, periods uint64) {
	c.own()
	c.widenExtent(tagShift, periods)
	dTag := uint64(tagShift) * periods
	dLRU := clockDelta * periods
	for s := uint64(0); s < c.nsets; s++ {
		if !touchedBit(touched, s) {
			continue
		}
		ways := c.ways(s)
		for i := range ways {
			if ways[i].valid {
				ways[i].tag += dTag
				ways[i].lru += dLRU
			}
		}
	}
	c.clock += dLRU
}

// widenExtent widens the filled extent to cover every line moved periods·
// tagShift tags, periods·tagShift·nsets line addresses: up for a positive
// shift, down for a negative one. A shift that would carry the extent past
// either end of the address space saturates it to the whole space instead,
// since a tag that wraps can land anywhere. An empty extent stays empty.
func (c *Cache) widenExtent(tagShift int64, periods uint64) {
	if c.lo >= c.hi {
		return
	}
	mag := uint64(tagShift)
	if tagShift < 0 {
		mag = -mag
	}
	ovf, tags := bits.Mul64(mag, periods)
	ovf2, lines := bits.Mul64(tags, c.nsets)
	switch {
	case ovf != 0 || ovf2 != 0 ||
		tagShift > 0 && lines > math.MaxUint64-c.hi ||
		tagShift < 0 && lines > c.lo:
		c.lo, c.hi = 0, math.MaxUint64
	case tagShift > 0:
		c.hi += lines
	default:
		c.lo -= lines
	}
}

// AddFoldStats adds periods repetitions of the per-period statistics delta.
func (c *Cache) AddFoldStats(d Stats, periods uint64) {
	c.Stats.Hits += d.Hits * periods
	c.Stats.Misses += d.Misses * periods
	c.Stats.Writebacks += d.Writebacks * periods
	c.Stats.Invalidates += d.Invalidates * periods
}

// StatsDelta returns s minus prev, element-wise.
func (s Stats) StatsDelta(prev Stats) Stats {
	return Stats{
		Hits:        s.Hits - prev.Hits,
		Misses:      s.Misses - prev.Misses,
		Writebacks:  s.Writebacks - prev.Writebacks,
		Invalidates: s.Invalidates - prev.Invalidates,
	}
}
