package cache

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// droppable counts the valid lines overlapping [addr, addr+size) by scanning
// every way of every set: the answer InvalidateRange must give without
// consulting the filled extent.
func droppable(c *Cache, addr, size uint64) uint64 {
	var n uint64
	for i, l := range c.lines {
		if !l.valid() {
			continue
		}
		a := c.lineAddr(uint64(i)/c.assoc, l.tag)
		if a < addr+size && a+c.cfg.LineBytes > addr {
			n++
		}
	}
	return n
}

// TestInvalidateRangeMatchesScanProperty drives random mixes of every
// operation that fills, moves or clears lines — Access, ApplyFoldShift with
// tag shifts in both directions, Flush, and Restore of a checkpoint into a
// fresh cache — and checks each InvalidateRange against a scan of all
// valid lines: the filled extent may skip only lines that are not there.
func TestInvalidateRangeMatchesScanProperty(t *testing.T) {
	cfg := Config{Name: "T", SizeBytes: 1024, LineBytes: 32, Assoc: 2} // 16 sets
	// Lines start far from address 0 so no fold shift wraps a tag.
	const base = 1 << 30
	rng := rand.New(rand.NewSource(17))
	var dropped uint64
	for trial := 0; trial < 300; trial++ {
		c := New(cfg)
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(20); {
			case k < 9:
				c.Access(base+uint64(rng.Intn(16<<10)), rng.Intn(2) == 0)
			case k < 16:
				// Aim at a resident line most of the time, anywhere otherwise.
				addr := base + uint64(rng.Intn(16<<10))
				if i := rng.Intn(len(c.lines)); c.lines[i].valid() && rng.Intn(4) > 0 {
					addr = c.lineAddr(uint64(i)/c.assoc, c.lines[i].tag) - uint64(rng.Intn(64))
				}
				size := uint64(1 + rng.Intn(1024))
				want := droppable(c, addr, size)
				before := c.Stats.Invalidates
				if got := c.InvalidateRange(addr, size); got != want {
					t.Fatalf("trial %d op %d: InvalidateRange(%#x, %d) = %d, want %d",
						trial, op, addr, size, got, want)
				}
				if c.Stats.Invalidates-before != want {
					t.Fatalf("trial %d op %d: Invalidates grew by %d, want %d",
						trial, op, c.Stats.Invalidates-before, want)
				}
				if n := droppable(c, addr, size); n != 0 {
					t.Fatalf("trial %d op %d: %d lines survived", trial, op, n)
				}
				dropped += want
			case k < 18:
				touched := []uint64{uint64(rng.Intn(1 << 16))}
				c.ApplyFoldShift(touched, int64(rng.Intn(7)-3), uint64(rng.Intn(8)), uint64(1+rng.Intn(3)))
			case k == 18:
				ck := c.Checkpoint()
				c = New(cfg)
				c.Restore(ck)
			default:
				c.Flush()
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no invalidation ever dropped a line; the test would prove nothing")
	}
}

// TestFoldShiftSaturatesExtent moves a line by a tag shift whose product
// wraps: a huge positive shift that lands the line below where it was. The
// extent must give up its bound rather than lose the line.
func TestFoldShiftSaturatesExtent(t *testing.T) {
	c := New(fastCfg())
	addr := 5 * c.SetSpan()
	c.Access(addr, false)
	all := make([]uint64, (c.nsets+63)/64)
	for i := range all {
		all[i] = math.MaxUint64
	}
	// Two periods of MaxInt64 tags advance each tag by 2^64-2, that is -2.
	c.ApplyFoldShift(all, math.MaxInt64, 1, 2)
	moved := addr - 2*c.SetSpan()
	if !c.Lookup(moved) {
		t.Fatal("the shifted line is not where the wrapped shift put it")
	}
	if got := c.InvalidateRange(moved, 1); got != 1 {
		t.Fatalf("InvalidateRange at the shifted line dropped %d lines, want 1", got)
	}
}

// TestNewAndRestoreAllocateNoArrays pins that a new cache shares its
// geometry's empty arrays and a restore adopts the checkpoint's: building
// and restoring a cache costs a fixed, small number of allocations however
// large the cache is.
func TestNewAndRestoreAllocateNoArrays(t *testing.T) {
	for _, cfg := range []Config{
		fastCfg(),
		{Name: "L2", SizeBytes: 1 << 20, LineBytes: 32, Assoc: 4},
	} {
		src := New(cfg)
		src.Access(0, true)
		ck := src.Checkpoint()
		n := testing.AllocsPerRun(20, func() { New(cfg).Restore(ck) })
		if n > 1 {
			t.Errorf("%s: New plus Restore allocates %v times, want at most 1", cfg.Name, n)
		}
	}
}

// TestNewCachesConcurrently builds and drives caches of two geometries from
// several goroutines at once. Under the race detector it fails if a write
// ever reaches the empty arrays the new caches share, or if building a
// geometry's empty state races with reading it.
func TestNewCachesConcurrently(t *testing.T) {
	cfgs := []Config{fastCfg(), {Name: "U", SizeBytes: 8 << 10, LineBytes: 64, Assoc: 4}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				c := New(cfgs[(g+i)%len(cfgs)])
				c.Lookup(0)
				for j := 0; j < 100; j++ {
					c.Access(uint64(rng.Intn(1<<16)), rng.Intn(2) == 0)
				}
				c.InvalidateRange(0, 1<<12)
			}
		}(g)
	}
	wg.Wait()
	for _, cfg := range cfgs {
		if n := New(cfg).ResidentLines(); n != 0 {
			t.Errorf("%s: a new cache holds %d lines", cfg.Name, n)
		}
	}
}
