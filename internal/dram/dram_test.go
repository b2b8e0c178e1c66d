package dram

import (
	"testing"

	"activepages/internal/sim"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{SubarrayBytes: 1000, RowBytes: 256, AccessTime: 1},
		{SubarrayBytes: 1024, RowBytes: 200, AccessTime: 1},
		{SubarrayBytes: 1024, RowBytes: 2048, AccessTime: 1},
		{SubarrayBytes: 1024, RowBytes: 256, AccessTime: 10, RowHitTime: 20},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestRowHitVsMiss(t *testing.T) {
	d := New(DefaultConfig())
	first := d.AccessTime(0)
	if first != 50*sim.Nanosecond {
		t.Fatalf("cold access = %v, want 50ns", first)
	}
	second := d.AccessTime(64) // same 2KB row
	if second != 20*sim.Nanosecond {
		t.Fatalf("row hit = %v, want 20ns", second)
	}
	third := d.AccessTime(4096) // different row, same subarray
	if third != 50*sim.Nanosecond {
		t.Fatalf("row miss = %v, want 50ns", third)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 2 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestSubarraysIndependentRows(t *testing.T) {
	d := New(DefaultConfig())
	sub := DefaultConfig().SubarrayBytes
	d.AccessTime(0)   // opens row 0 in subarray 0
	d.AccessTime(sub) // opens row 0 in subarray 1
	if got := d.AccessTime(64); got != 20*sim.Nanosecond {
		t.Fatalf("subarray 0 row should still be open, got %v", got)
	}
	if got := d.AccessTime(sub + 64); got != 20*sim.Nanosecond {
		t.Fatalf("subarray 1 row should still be open, got %v", got)
	}
}

func TestSubarrayIndex(t *testing.T) {
	d := New(DefaultConfig())
	if d.Subarray(0) != 0 {
		t.Error("subarray 0 wrong")
	}
	if d.Subarray(512*1024) != 1 {
		t.Error("subarray 1 wrong")
	}
	if d.Subarray(512*1024-1) != 0 {
		t.Error("last byte of subarray 0 wrong")
	}
}

func TestCloseAll(t *testing.T) {
	d := New(DefaultConfig())
	d.AccessTime(0)
	d.CloseAll()
	if got := d.AccessTime(0); got != 50*sim.Nanosecond {
		t.Fatalf("access after CloseAll = %v, want full latency", got)
	}
}

func TestZeroAccessTime(t *testing.T) {
	// Figure 8's sweep includes a 0 ns miss latency point.
	cfg := DefaultConfig()
	cfg.AccessTime = 0
	cfg.RowHitTime = 0
	d := New(cfg)
	if d.AccessTime(0) != 0 || d.AccessTime(123456) != 0 {
		t.Fatal("zero-latency DRAM charged time")
	}
	if d.Stats.Accesses != 2 {
		t.Fatal("accesses not counted in zero-latency mode")
	}
}

func TestSequentialScanMostlyRowHits(t *testing.T) {
	d := New(DefaultConfig())
	for a := uint64(0); a < 64*1024; a += 32 {
		d.AccessTime(a)
	}
	// 64 KB / 2 KB rows = 32 row misses; the rest are hits.
	if d.Stats.RowMisses != 32 {
		t.Fatalf("row misses = %d, want 32", d.Stats.RowMisses)
	}
	if d.Stats.RowHits != 2048-32 {
		t.Fatalf("row hits = %d, want %d", d.Stats.RowHits, 2048-32)
	}
}
