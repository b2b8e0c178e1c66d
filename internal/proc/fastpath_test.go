package proc

import (
	"math/rand"
	"testing"

	"activepages/internal/mem"
	"activepages/internal/memsys"
)

// newStack builds an isolated CPU + hierarchy + store. When reference is
// set, the hierarchy's Reference switch disables every fast path in the
// stack: the CPU issues scalar accesses and the hierarchy walks the full
// chain per element.
func newStack(reference bool) *CPU {
	h := memsys.New(memsys.DefaultConfig())
	h.Reference = reference
	return New(DefaultConfig(), h, mem.NewStore())
}

// TestBulkOpsMatchScalar drives a fast and a reference stack through the
// same random mix of typed slice operations and requires the time ledger,
// operation counts, hierarchy statistics, and memory contents to stay
// identical at every step.
func TestBulkOpsMatchScalar(t *testing.T) {
	fast, ref := newStack(false), newStack(true)
	rng := rand.New(rand.NewSource(11))

	check := func(step int) {
		t.Helper()
		if fast.Stats != ref.Stats {
			t.Fatalf("step %d: ledger %+v, want %+v", step, fast.Stats, ref.Stats)
		}
		if fast.Now() != ref.Now() {
			t.Fatalf("step %d: now %v, want %v", step, fast.Now(), ref.Now())
		}
		fh, rh := fast.Hierarchy(), ref.Hierarchy()
		if fh.L1D.Stats != rh.L1D.Stats || fh.L2.Stats != rh.L2.Stats ||
			fh.DRAM.Stats != rh.DRAM.Stats || fh.UncachedAccesses != rh.UncachedAccesses {
			t.Fatalf("step %d: hierarchy stats diverged", step)
		}
	}

	u16 := make([]uint16, 128)
	u32 := make([]uint32, 128)
	u64 := make([]uint64, 128)
	u16b := make([]uint16, 128)
	u32b := make([]uint32, 128)
	u64b := make([]uint64, 128)
	for step := 0; step < 3000; step++ {
		addr := uint64(rng.Intn(1 << 16))
		n := rng.Intn(128) + 1
		switch rng.Intn(6) {
		case 0:
			for i := 0; i < n; i++ {
				u32[i] = rng.Uint32()
			}
			fast.StoreU32Slice(addr, u32[:n])
			ref.StoreU32Slice(addr, u32[:n])
		case 1:
			fast.LoadU32Slice(addr, u32[:n])
			ref.LoadU32Slice(addr, u32b[:n])
			for i := 0; i < n; i++ {
				if u32[i] != u32b[i] {
					t.Fatalf("step %d: load[%d] = %#x, want %#x", step, i, u32[i], u32b[i])
				}
			}
		case 2:
			for i := 0; i < n; i++ {
				u16[i] = uint16(rng.Uint32())
			}
			fast.StoreU16Slice(addr, u16[:n])
			ref.StoreU16Slice(addr, u16[:n])
		case 3:
			fast.LoadU16Slice(addr, u16[:n])
			ref.LoadU16Slice(addr, u16b[:n])
			for i := 0; i < n; i++ {
				if u16[i] != u16b[i] {
					t.Fatalf("step %d: load16[%d] diverged", step, i)
				}
			}
		case 4:
			for i := 0; i < n; i++ {
				u64[i] = rng.Uint64()
			}
			fast.StoreU64Slice(addr, u64[:n])
			ref.StoreU64Slice(addr, u64[:n])
		case 5:
			fast.LoadU64Slice(addr, u64[:n])
			ref.LoadU64Slice(addr, u64b[:n])
			for i := 0; i < n; i++ {
				if u64[i] != u64b[i] {
					t.Fatalf("step %d: load64[%d] diverged", step, i)
				}
			}
		}
		// Interleave scalar traffic so the caches see mixed patterns.
		if rng.Intn(3) == 0 {
			a := uint64(rng.Intn(1 << 16))
			fast.StoreU32(a, 1)
			ref.StoreU32(a, 1)
			_ = fast.LoadU32(a)
			_ = ref.LoadU32(a)
		}
		check(step)
	}
}

// TestScalarLoadStoreZeroAllocs pins the PR's 0 allocs/op acceptance
// criterion on the scalar load/store fast path.
func TestScalarLoadStoreZeroAllocs(t *testing.T) {
	c := newStack(false)
	c.StoreU32(0, 1)
	if n := testing.AllocsPerRun(100, func() {
		c.StoreU32(64, 42)
		_ = c.LoadU32(64)
		_ = c.LoadU16(32)
		c.StoreU64(128, 7)
		_ = c.LoadU64(128)
	}); n != 0 {
		t.Fatalf("scalar load/store path allocates %v times per op", n)
	}
}

func BenchmarkCPULoadU32(b *testing.B) {
	c := newStack(false)
	c.StoreU32(0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.LoadU32(uint64(i%1024) * 4)
	}
}

// BenchmarkLoadU32Slice compares the batched bulk path against the scalar
// per-element loop it replaced.
func BenchmarkLoadU32Slice(b *testing.B) {
	buf := make([]uint32, 4096)
	b.Run("bulk", func(b *testing.B) {
		c := newStack(false)
		c.StoreU32Slice(0, buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.LoadU32Slice(0, buf)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		c := newStack(true)
		c.StoreU32Slice(0, buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.LoadU32Slice(0, buf)
		}
	})
}
