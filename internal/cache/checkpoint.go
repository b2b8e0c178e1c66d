package cache

// Checkpoint is a copy-on-write snapshot of a cache's full replacement
// state and filled extent. It shares its line and MRU arrays with the cache
// it was taken from and with every cache restored from it; each of those
// copies the arrays before its next mutation (own), so the checkpoint never
// changes and one checkpoint can seed any number of caches, concurrently.
type Checkpoint struct {
	lines  []line
	mru    []int32
	lo, hi uint64
	clock  uint64
	stats  Stats
}

// Bytes estimates the checkpoint's host-memory footprint, for checkpoint
// cache accounting. It charges 32 bytes a line, twice what a packed line
// takes, so it bounds the footprint from above. The charge decides which
// cached runs a sweep evicts and so which of its runs simulate cold; it
// stays as it is so that every sweep's diag.checkpoint_* counts do too.
func (c Checkpoint) Bytes() uint64 {
	return uint64(len(c.lines))*32 + uint64(len(c.mru))*4
}

// Checkpoint captures the cache's replacement state by sharing its arrays.
func (c *Cache) Checkpoint() Checkpoint {
	c.shared = true
	return Checkpoint{lines: c.lines, mru: c.mru, lo: c.lo, hi: c.hi, clock: c.clock, stats: c.Stats}
}

// Restore overwrites the cache's replacement state with a checkpoint taken
// from a cache of identical geometry (set count and associativity); callers
// guarantee the match by building the target cache from the same
// configuration. The cache adopts the checkpoint's arrays as shared; a
// cache that New built and nothing wrote discards no arrays of its own.
func (c *Cache) Restore(ck Checkpoint) {
	c.lines, c.mru, c.clock, c.Stats = ck.lines, ck.mru, ck.clock, ck.stats
	c.lo, c.hi = ck.lo, ck.hi
	c.shared = true
}
