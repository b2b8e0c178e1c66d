package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 32-byte lines = 256 bytes.
	return New(Config{Name: "T", SizeBytes: 256, LineBytes: 32, Assoc: 2})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 32, Assoc: 2},
		{Name: "b", SizeBytes: 100, LineBytes: 32, Assoc: 2},     // not pow2
		{Name: "c", SizeBytes: 256, LineBytes: 33, Assoc: 2},     // line not pow2
		{Name: "d", SizeBytes: 256, LineBytes: 32, Assoc: 0},     // assoc < 1
		{Name: "e", SizeBytes: 32, LineBytes: 32, Assoc: 2},      // too small
		{Name: "f", SizeBytes: 256, LineBytes: 0, Assoc: 2},      // zero line
		{Name: "h", SizeBytes: 8 << 20, LineBytes: 32, Assoc: 4}, // above 4 MiB
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %s should be invalid", c.Name)
		}
	}
	for _, good := range []Config{
		{Name: "g", SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2},
		{Name: "i", SizeBytes: 4 << 20, LineBytes: 32, Assoc: 4},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
}

// TestLineIs16Bytes pins the packed line: a tag and one word for the
// valid bit, dirty bit and LRU stamp, so a 4-way set fills one 64-byte
// host cache line and a 1 MiB L2 of 32-byte lines takes 512 KiB of lines.
func TestLineIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Fatalf("a cache line takes %d bytes, want 16", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	if r := c.Access(0, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(31, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(32, false); r.Hit {
		t.Fatal("next-line access hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := tiny()          // 4 sets, so addresses 0, 128, 256... map to set 0
	c.Access(0, false)   // way A
	c.Access(128, false) // way B
	c.Access(0, false)   // touch A: B is now LRU
	c.Access(256, false) // evicts B
	if !c.Lookup(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Lookup(128) {
		t.Fatal("LRU line survived")
	}
	if !c.Lookup(256) {
		t.Fatal("new line absent")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := tiny()
	c.Access(0, true)    // dirty
	c.Access(128, false) // clean
	c.Access(256, false) // evicts line 0 (LRU, dirty)
	r := c.Access(384, false)
	// After the 256 access, set 0 holds {128-clean, 256-clean}; the 384
	// access evicts 128 which is clean. Let's instead check the eviction of
	// the dirty line directly.
	_ = r
	c2 := tiny()
	c2.Access(0, true)
	c2.Access(128, false)
	c2.Access(128, false) // make 0 LRU
	r2 := c2.Access(256, false)
	if !r2.Writeback || r2.WritebackAddr != 0 {
		t.Fatalf("expected writeback of line 0, got %+v", r2)
	}
	if c2.Stats.Writebacks != 1 {
		t.Fatalf("writeback count = %d", c2.Stats.Writebacks)
	}
}

func TestWriteMakesLineDirty(t *testing.T) {
	c := tiny()
	c.Access(0, false) // clean fill
	c.Access(0, true)  // dirty it
	c.Access(128, false)
	c.Access(128, false)
	r := c.Access(256, false) // evict line 0
	if !r.Writeback {
		t.Fatal("dirtied line evicted without writeback")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(32, false)
	c.Access(64, false)
	dropped := c.InvalidateRange(0, 64) // lines at 0 and 32
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if c.Lookup(0) || c.Lookup(32) {
		t.Fatal("invalidated line still resident")
	}
	if !c.Lookup(64) {
		t.Fatal("line outside range invalidated")
	}
	if c.Stats.Invalidates != 2 {
		t.Fatalf("invalidate stat = %d", c.Stats.Invalidates)
	}
	if c.InvalidateRange(0, 0) != 0 {
		t.Fatal("zero-size invalidate dropped lines")
	}
}

func TestInvalidateUnalignedRange(t *testing.T) {
	c := tiny()
	c.Access(0, false)
	c.Access(32, false)
	// Range [30, 35) touches both lines.
	if dropped := c.InvalidateRange(30, 5); dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(32, false)
	dirty := c.Flush()
	if dirty != 1 {
		t.Fatalf("dirty on flush = %d, want 1", dirty)
	}
	if c.ResidentLines() != 0 {
		t.Fatal("flush left lines resident")
	}
}

func TestMissRate(t *testing.T) {
	c := tiny()
	if c.Stats.MissRate() != 0 {
		t.Fatal("untouched cache has nonzero miss rate")
	}
	c.Access(0, false)
	c.Access(0, false)
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", got)
	}
}

// Property: capacity invariant — resident lines never exceed capacity, and a
// working set smaller than one way per set never misses after warmup.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			c.Access(uint64(a), a%2 == 0)
		}
		return c.ResidentLines() <= 8 // 4 sets x 2 ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsNoMissesAfterWarmup(t *testing.T) {
	c := New(Config{Name: "W", SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2})
	// 32 KB working set in a 64 KB cache.
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 32*1024; a += 32 {
			c.Access(a, false)
		}
	}
	warmMisses := c.Stats.Misses
	if warmMisses != 1024 {
		t.Fatalf("warmup misses = %d, want exactly one per line (1024)", warmMisses)
	}
}

func TestThrashingDirectMapped(t *testing.T) {
	// Direct-mapped cache with two addresses mapping to the same set
	// alternating must miss every time.
	c := New(Config{Name: "DM", SizeBytes: 128, LineBytes: 32, Assoc: 1})
	for i := 0; i < 10; i++ {
		c.Access(0, false)
		c.Access(128, false) // same set (4 sets * 32B = 128B stride)
	}
	if c.Stats.Hits != 0 {
		t.Fatalf("conflicting lines hit %d times in direct-mapped cache", c.Stats.Hits)
	}
}

// Property: the model agrees with a reference fully-associative-per-set
// simulation on hit/miss for random traces.
func TestModelMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := tiny()
		// reference: map set -> slice of (tag, lastUse)
		type ref struct {
			tag uint64
			use int
		}
		sets := make(map[uint64][]ref)
		for step := 0; step < 500; step++ {
			addr := uint64(rng.Intn(2048))
			lineAddr := addr / 32
			set, tag := lineAddr%4, lineAddr/4
			got := c.Access(addr, false).Hit

			ways := sets[set]
			hit := false
			for i := range ways {
				if ways[i].tag == tag {
					hit = true
					ways[i].use = step
				}
			}
			if hit != got {
				return false
			}
			if !hit {
				if len(ways) < 2 {
					ways = append(ways, ref{tag: tag, use: step})
				} else {
					v := 0
					if ways[1].use < ways[0].use {
						v = 1
					}
					ways[v] = ref{tag: tag, use: step}
				}
				sets[set] = ways
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "B", SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2})
	c.Access(0, false)
	for i := 0; i < b.N; i++ {
		c.Access(0, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := New(Config{Name: "B", SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2})
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*32, false)
	}
}
