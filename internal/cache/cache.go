// Package cache models set-associative write-back caches with LRU
// replacement, matching the hierarchy simulated in the Active Pages paper:
// split 64 KB 2-way L1 instruction and data caches over a unified 1 MB
// 4-way L2.
//
// The model is a timing/occupancy model: it tracks which lines are resident,
// dirty bits, and LRU order, and reports hits and misses. Data contents live
// in the backing store (package mem); the cache never copies bytes.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"activepages/internal/obs"
)

// Config describes one cache level.
type Config struct {
	Name      string // for statistics, e.g. "L1D"
	SizeBytes uint64 // total capacity; power of two
	LineBytes uint64 // line size; power of two
	Assoc     int    // ways per set; >= 1
}

// maxSizeBytes is the largest cache Validate accepts: Table 1's 4 MiB
// L2, the top of the paper's L2 sweep. A cache builds its line arrays when
// it is constructed, and a Go out-of-memory error is fatal, so one huge
// size flag could otherwise kill the process.
const maxSizeBytes = 4 << 20

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache %s: size %d not a power of two", c.Name, c.SizeBytes)
	case c.SizeBytes > maxSizeBytes:
		return fmt.Errorf("cache %s: size %d exceeds the paper's largest cache, %d bytes",
			c.Name, c.SizeBytes, maxSizeBytes)
	case c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.Assoc < 1:
		return fmt.Errorf("cache %s: associativity %d < 1", c.Name, c.Assoc)
	case c.SizeBytes < c.LineBytes*uint64(c.Assoc):
		return fmt.Errorf("cache %s: size %d too small for %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Assoc, c.LineBytes)
	}
	return nil
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // dirty lines evicted
	Invalidates uint64 // lines dropped by external invalidation
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Observe registers the cache's counters under prefix (e.g. "mem.l1d").
func (c *Cache) Observe(r *obs.Registry, prefix string) {
	r.Counter(prefix+".hits", func() uint64 { return c.Stats.Hits })
	r.Counter(prefix+".misses", func() uint64 { return c.Stats.Misses })
	r.Counter(prefix+".writebacks", func() uint64 { return c.Stats.Writebacks })
	r.Counter(prefix+".invalidates", func() uint64 { return c.Stats.Invalidates })
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// line is one way of a set: its tag, and one word packing the valid bit
// (bit 0), the dirty bit (bit 1) and the LRU stamp (bits 2 and up). The
// stamp is the cache clock at the line's last access; the smallest stamp
// in a set is the victim. An invalid line is the zero line. At 16 bytes,
// against 24 for separate fields, a 4-way set fills one 64-byte host cache
// line. The stamp keeps the clock's low 62 bits: the clock advances once
// per simulated access, and no run comes near 2^62 of them.
type line struct {
	tag  uint64
	meta uint64
}

const (
	validBit = 1 << 0
	dirtyBit = 1 << 1
	lruShift = 2
)

func (l line) valid() bool { return l.meta&validBit != 0 }
func (l line) dirty() bool { return l.meta&dirtyBit != 0 }
func (l line) lru() uint64 { return l.meta >> lruShift }

// dirtyIf is dirtyBit for a write and 0 for a read.
func dirtyIf(write bool) uint64 {
	if write {
		return dirtyBit
	}
	return 0
}

// filled is a valid line holding tag, stamped with clock, dirty if a write
// filled it.
func filled(tag, clock uint64, write bool) line {
	return line{tag: tag, meta: clock<<lruShift | dirtyIf(write) | validBit}
}

// touch records a hit on a valid line: it restamps the line with clock
// and, for a write, sets its dirty bit.
func (l *line) touch(clock uint64, write bool) {
	l.meta = clock<<lruShift | l.meta&dirtyBit | dirtyIf(write) | validBit
}

// hits reports whether l is a valid line holding tag.
func (l line) hits(tag uint64) bool { return l.valid() && l.tag == tag }

// Cache is one level of a write-back, write-allocate cache.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: set s is
	// lines[s*assoc : (s+1)*assoc].
	lines []line
	assoc uint64
	nsets uint64
	// lineShift/setMask/setShift turn locate's divisions into shifts.
	// LineBytes is always a power of two; the set count is in every real
	// configuration too (setsPow2 guards the rare test configs where an
	// odd associativity makes it composite).
	lineShift uint
	setShift  uint
	setMask   uint64
	setsPow2  bool
	// mru[set] is the way hit most recently, checked before the full scan.
	mru []int32
	// shared reports that lines and mru are shared — with a Checkpoint, or
	// with every cache of the same geometry that has not been written yet
	// (see emptyArrays); own copies them before the cache's next mutation.
	shared bool
	// lo and hi bound the line addresses (addr >> lineShift) of the valid
	// lines: each lies in [lo, hi), and lo >= hi when the cache holds none.
	// Access widens the extent at every fill, ApplyFoldShift by its shift,
	// and Flush resets it, so InvalidateRange probes only where a range
	// overlaps lines the cache may hold.
	lo, hi uint64
	clock  uint64 // LRU sequence source
	Stats  Stats
	// OnMiss, when set, is invoked on every miss with the missing address —
	// the tracing hook. It must be nil when tracing is off so the miss path
	// pays only a nil check; the hit paths never consult it.
	OnMiss func(addr uint64)
}

// New builds a cache from cfg. It panics on an invalid configuration;
// configurations come from code, not user input. The new cache shares its
// geometry's all-invalid arrays and allocates its own at its first write.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	assoc := uint64(cfg.Assoc)
	nsets := cfg.SizeBytes / cfg.LineBytes / assoc
	lines, mru := emptyArrays(nsets, assoc)
	c := &Cache{cfg: cfg, lines: lines, mru: mru, shared: true, assoc: assoc,
		nsets: nsets, lo: math.MaxUint64}
	c.lineShift = uint(bits.TrailingZeros64(cfg.LineBytes))
	if nsets&(nsets-1) == 0 {
		c.setsPow2 = true
		c.setShift = uint(bits.TrailingZeros64(nsets))
		c.setMask = nsets - 1
	}
	return c
}

// empties holds one all-invalid line array and MRU array per cache
// geometry (set count, associativity). Every cache of that geometry starts
// out sharing them copy-on-write, so a cache that is never written — or is
// restored from a checkpoint before its first write — allocates no arrays.
// Geometries come from code, never from a request, so the map stays small.
var (
	emptiesMu sync.Mutex
	empties   = map[[2]uint64]emptyState{}
)

type emptyState struct {
	lines []line
	mru   []int32
}

// emptyArrays returns the shared all-invalid arrays for a geometry. Callers
// must never write them; own copies them first.
func emptyArrays(nsets, assoc uint64) ([]line, []int32) {
	emptiesMu.Lock()
	defer emptiesMu.Unlock()
	key := [2]uint64{nsets, assoc}
	e, ok := empties[key]
	if !ok {
		e = emptyState{make([]line, nsets*assoc), make([]int32, nsets)}
		empties[key] = e
	}
	return e.lines, e.mru
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() uint64 { return c.cfg.LineBytes }

// ways returns set's lines. Writing through the slice is safe only if own
// ran before it was taken.
func (c *Cache) ways(set uint64) []line {
	return c.lines[set*c.assoc : (set+1)*c.assoc]
}

// own makes the line and MRU arrays the cache's own, copying them if a
// checkpoint or the geometry's empty state shares them. Every method that
// mutates either array calls it before its first write.
func (c *Cache) own() {
	if c.shared {
		c.lines = append([]line(nil), c.lines...)
		c.mru = append([]int32(nil), c.mru...)
		c.shared = false
	}
}

func (c *Cache) locate(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineShift
	if c.setsPow2 {
		return lineAddr & c.setMask, lineAddr >> c.setShift
	}
	return lineAddr % c.nsets, lineAddr / c.nsets
}

// Result describes the outcome of a single-line access.
type Result struct {
	Hit bool
	// WritebackAddr is the address of a dirty victim line that must be
	// written back, valid only when Writeback is true.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a read or write of the line containing addr and returns
// whether it hit, allocating the line on miss (write-allocate) and reporting
// any dirty eviction. Callers that need multi-line accesses should iterate
// line by line (see AccessRange).
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.locate(addr)
	c.own()
	c.clock++
	base := set * c.assoc
	// MRU fast path: repeated accesses to the hottest way of a set skip the
	// associativity scan. Hitting any way is the same state transition
	// whichever order the ways are probed in, so this cannot change stats.
	if l := &c.lines[base+uint64(c.mru[set])]; l.hits(tag) {
		l.touch(c.clock, write)
		c.Stats.Hits++
		return Result{Hit: true}
	}
	ways := c.lines[base : base+c.assoc]
	for i := range ways {
		if ways[i].hits(tag) {
			ways[i].touch(c.clock, write)
			c.mru[set] = int32(i)
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++
	if c.OnMiss != nil {
		c.OnMiss(addr)
	}
	// Choose a victim: an invalid way if any, else LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid() {
			victim = i
			break
		}
		if ways[i].lru() < ways[victim].lru() {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid() && ways[victim].dirty() {
		res.Writeback = true
		res.WritebackAddr = c.lineAddr(set, ways[victim].tag)
		c.Stats.Writebacks++
	}
	ways[victim] = filled(tag, c.clock, write)
	c.mru[set] = int32(victim)
	// Widen the extent to the filled line. Only a 1-byte line at the last
	// address overflows la+1; InvalidateRange can never reach that line.
	la := addr >> c.lineShift
	c.lo, c.hi = min(c.lo, la), max(c.hi, la+1)
	return res
}

// AccessFast is the MRU-only hit path: if the line containing addr is the
// most recently used way of its set, it performs the access (identically to
// Access) and reports true. Otherwise it reports false having changed
// nothing, and the caller must fall back to Access. It skips Access's way
// scan and victim choice, though it is still over the compiler's inlining
// budget.
func (c *Cache) AccessFast(addr uint64, write bool) bool {
	set, tag := c.locate(addr)
	m := set*c.assoc + uint64(c.mru[set])
	if !c.lines[m].hits(tag) {
		return false
	}
	c.own()
	c.clock++
	c.lines[m].touch(c.clock, write)
	c.Stats.Hits++
	return true
}

// RepeatHit charges n further accesses to the line containing addr, which
// the caller knows is resident — typically because it just accessed it.
// State and statistics end up exactly as n Access calls would leave them:
// the line was already resident, so each call would hit, bump the clock,
// refresh the line's LRU stamp, and accumulate the dirty bit. If the line
// is unexpectedly absent it falls back to n real Access calls.
func (c *Cache) RepeatHit(addr uint64, n uint64, write bool) {
	if n == 0 {
		return
	}
	set, tag := c.locate(addr)
	c.own()
	ways := c.ways(set)
	for i := range ways {
		if ways[i].hits(tag) {
			c.clock += n
			ways[i].touch(c.clock, write)
			c.mru[set] = int32(i)
			c.Stats.Hits += n
			return
		}
	}
	for ; n > 0; n-- {
		c.Access(addr, write)
	}
}

// StreamRepeat charges k further rounds of hits over resident lines: each
// round performs counts[j] consecutive accesses to the line containing
// addrs[j], in slice order, with writes[j] setting the dirty bit. The
// caller guarantees every line is resident and stays resident — any two
// entries are either the same line or map to different sets — so every
// access is a hit. State ends byte-identical to executing the k·Σcounts
// interleaved Access calls: the clock advances once per access and each
// line's LRU stamp is the clock value of its last hit in the final round.
// Returns the number of hits charged (k·Σcounts), which the caller prices.
func (c *Cache) StreamRepeat(addrs, counts []uint64, writes []bool, k uint64) uint64 {
	var perRound uint64
	for _, n := range counts {
		perRound += n
	}
	if k == 0 || perRound == 0 {
		return 0
	}
	c.own()
	base := c.clock + (k-1)*perRound
	var prefix uint64
	for j, addr := range addrs {
		set, tag := c.locate(addr)
		ways := c.ways(set)
		prefix += counts[j]
		for i := range ways {
			if ways[i].hits(tag) {
				ways[i].touch(base+prefix, writes[j])
				c.mru[set] = int32(i)
				break
			}
		}
	}
	c.clock += k * perRound
	c.Stats.Hits += k * perRound
	return k * perRound
}

// lineAddr reconstructs the base address of a line from set and tag.
func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return (tag*c.nsets + set) * c.cfg.LineBytes
}

// Lookup reports whether the line containing addr is resident without
// touching LRU state or statistics.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.locate(addr)
	for _, w := range c.ways(set) {
		if w.hits(tag) {
			return true
		}
	}
	return false
}

// InvalidateRange drops any lines overlapping [addr, addr+size), discarding
// dirty data (the invalidator — an Active-Page function — is the new owner
// of those bytes). Returns the number of lines dropped. It probes only the
// lines the range shares with the filled extent, so a range away from every
// line the cache has filled costs nothing.
func (c *Cache) InvalidateRange(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var dropped uint64
	first := max(addr>>c.lineShift, c.lo)
	end := min((addr+size-1)>>c.lineShift+1, c.hi)
	for la := first; la < end; la++ {
		set, tag := c.locate(la << c.lineShift)
		ways := c.ways(set)
		for i := range ways {
			if ways[i].hits(tag) {
				c.own() // ways may be shared: write through c.lines
				c.lines[set*c.assoc+uint64(i)] = line{}
				dropped++
				c.Stats.Invalidates++
				break
			}
		}
	}
	return dropped
}

// Flush invalidates the entire cache, returning the number of dirty lines
// that would have been written back.
func (c *Cache) Flush() uint64 {
	c.own()
	var dirty uint64
	for i := range c.lines {
		if c.lines[i].valid() && c.lines[i].dirty() {
			dirty++
		}
		c.lines[i] = line{}
	}
	c.lo, c.hi = math.MaxUint64, 0
	return dirty
}

// ResidentLines counts valid lines, mostly for tests.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid() {
			n++
		}
	}
	return n
}
