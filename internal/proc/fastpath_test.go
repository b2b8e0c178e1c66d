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
// same random mix of streams over consecutive elements (entries with
// Count > 1, which the fast stack charges in one batch and the reference
// stack one access at a time) and scalar loads and stores, and requires
// the time ledger, operation counts and hierarchy statistics to stay
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

	for step := 0; step < 3000; step++ {
		size := uint64(2) << rng.Intn(3)
		acc := []memsys.StreamAcc{{Size: size, Count: uint64(rng.Intn(128) + 1), Kind: memsys.Read}}
		if rng.Intn(2) == 0 {
			acc[0].Kind = memsys.Write
		}
		addr := uint64(rng.Intn(1 << 16))
		stride := int64(acc[0].Count * size)
		n := uint64(rng.Intn(4) + 1)
		fast.Stream(addr, stride, n, acc, 1)
		ref.Stream(addr, stride, n, acc, 1)
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
