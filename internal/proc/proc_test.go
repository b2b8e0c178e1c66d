package proc

import (
	"testing"

	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/sim"
)

func newCPU() *CPU {
	store := mem.NewStore()
	return New(DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
}

func TestComputeAdvancesClock(t *testing.T) {
	c := newCPU()
	c.Compute(1000)
	if c.Now() != 1*sim.Microsecond {
		t.Fatalf("1000 cycles at 1 GHz = %v, want 1us", c.Now())
	}
	if c.Stats.ComputeTime != 1*sim.Microsecond || c.Stats.Instructions != 1000 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c := newCPU()
	c.StoreU32(100, 0xDEADBEEF)
	if got := c.LoadU32(100); got != 0xDEADBEEF {
		t.Fatalf("load = %#x", got)
	}
	c.Store().WriteU16(200, 0xBEEF)
	if got := c.LoadU16(200); got != 0xBEEF {
		t.Fatal("u16 load")
	}
	c.StoreU64(300, 42)
	if got := c.LoadU64(300); got != 42 {
		t.Fatal("u64 round trip")
	}
	if c.Stats.Loads != 3 || c.Stats.Stores != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestColdLoadChargesMemStall(t *testing.T) {
	c := newCPU()
	c.LoadU32(0)
	if c.Stats.MemStallTime == 0 {
		t.Fatal("cold load recorded no memory stall")
	}
	stallAfterCold := c.Stats.MemStallTime
	c.LoadU32(0) // warm: pure hit, no extra stall
	if c.Stats.MemStallTime != stallAfterCold {
		t.Fatal("warm load charged memory stall")
	}
}

func TestUncachedAccessesBypassCache(t *testing.T) {
	c := newCPU()
	c.UncachedStoreU32(64, 7)
	if got := c.UncachedLoadU32(64); got != 7 {
		t.Fatalf("uncached round trip = %d", got)
	}
	if c.Hierarchy().L1D.Stats.Accesses() != 0 {
		t.Fatal("uncached access touched L1D")
	}
}

func TestBlockOps(t *testing.T) {
	c := newCPU()
	data := []byte{1, 2, 3, 4, 5}
	c.WriteBlock(1000, data)
	got := make([]byte, 5)
	c.ReadBlock(1000, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("block round trip")
		}
	}
	c.UncachedWriteBlock(2000, data)
	c.UncachedReadBlock(2000, got)
	if got[4] != 5 {
		t.Fatal("uncached block round trip")
	}
}

func TestStallUntilRecordsNonOverlap(t *testing.T) {
	c := newCPU()
	c.Compute(100)
	target := c.Now() + 500*sim.Nanosecond
	c.StallUntil(target)
	if c.Now() != target {
		t.Fatalf("now = %v, want %v", c.Now(), target)
	}
	if c.Stats.NonOverlapTime != 500*sim.Nanosecond {
		t.Fatalf("non-overlap = %v", c.Stats.NonOverlapTime)
	}
	// Stalling to the past is a no-op.
	c.StallUntil(0)
	if c.Stats.NonOverlapTime != 500*sim.Nanosecond {
		t.Fatal("past stall recorded time")
	}
}

func TestMediationWork(t *testing.T) {
	c := newCPU()
	c.MediationWork(2 * sim.Microsecond)
	if c.Stats.MediationTime != 2*sim.Microsecond || c.Now() != 2*sim.Microsecond {
		t.Fatalf("mediation = %+v now %v", c.Stats, c.Now())
	}
}

func TestComputeFP(t *testing.T) {
	c := newCPU()
	c.ComputeFP(100)
	if c.Stats.FPOps != 100 {
		t.Fatalf("FP ops = %d", c.Stats.FPOps)
	}
	if c.Now() != 100*sim.Nanosecond {
		t.Fatalf("pipelined FP time = %v, want 100ns", c.Now())
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{
		ComputeTime:    60,
		MemStallTime:   20,
		NonOverlapTime: 15,
		MediationTime:  5,
	}
	if s.TotalTime() != 100 {
		t.Fatal("total wrong")
	}
	if s.NonOverlapFraction() != 0.15 {
		t.Fatalf("non-overlap fraction = %v", s.NonOverlapFraction())
	}
	if (Stats{}).NonOverlapFraction() != 0 {
		t.Fatal("empty stats fraction should be 0")
	}
}

func TestTimeBucketsPartitionTotal(t *testing.T) {
	// Whatever mix of operations runs, Now() equals the sum of buckets.
	c := newCPU()
	c.Compute(123)
	c.LoadU32(0)
	c.LoadU32(4096)
	c.StoreU64(8192, 1)
	c.UncachedLoadU32(1 << 20)
	c.StallUntil(c.Now() + 777*sim.Nanosecond)
	c.MediationWork(55 * sim.Nanosecond)
	if c.Now() != c.Stats.TotalTime() {
		t.Fatalf("now %v != bucket sum %v", c.Now(), c.Stats.TotalTime())
	}
}

// Property: Compute is exact — n instructions always advance the clock by
// exactly n cycles, independent of history.
func TestComputeExactProperty(t *testing.T) {
	c := newCPU()
	total := uint64(0)
	for _, n := range []uint64{1, 7, 1000, 999983} {
		before := c.Now()
		c.Compute(n)
		total += n
		if c.Now()-before != sim.Duration(n)*sim.Nanosecond {
			t.Fatalf("Compute(%d) advanced %v", n, c.Now()-before)
		}
	}
	if c.Stats.Instructions != total {
		t.Fatalf("instructions = %d, want %d", c.Stats.Instructions, total)
	}
}

func TestUncachedBlockTiming(t *testing.T) {
	c := newCPU()
	buf := make([]byte, 64)
	before := c.Now()
	c.UncachedReadBlock(0, buf)
	// DRAM cold access (50ns) + 16 bus beats (160ns).
	if got := c.Now() - before; got != 210*sim.Nanosecond {
		t.Fatalf("uncached 64B read = %v, want 210ns", got)
	}
}
