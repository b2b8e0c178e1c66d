package bus

import (
	"testing"
	"testing/quick"

	"activepages/internal/sim"
)

func TestDefaultConfig(t *testing.T) {
	b := New(DefaultConfig())
	// 32 bits every 10 ns (paper Section 3).
	if got := b.TransferTime(4); got != 10*sim.Nanosecond {
		t.Fatalf("4-byte transfer = %v, want 10ns", got)
	}
	if got := b.TransferTime(32); got != 80*sim.Nanosecond {
		t.Fatalf("32-byte line transfer = %v, want 80ns", got)
	}
}

func TestRoundsUpToBeats(t *testing.T) {
	b := New(DefaultConfig())
	if got := b.TransferTime(1); got != 10*sim.Nanosecond {
		t.Fatalf("1-byte transfer = %v, want one full beat", got)
	}
	if got := b.TransferTime(5); got != 20*sim.Nanosecond {
		t.Fatalf("5-byte transfer = %v, want two beats", got)
	}
}

func TestZeroTransfer(t *testing.T) {
	b := New(DefaultConfig())
	if b.TransferTime(0) != 0 {
		t.Fatal("zero-byte transfer should be free")
	}
	if b.Stats.Transfers != 0 {
		t.Fatal("zero-byte transfer counted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := New(DefaultConfig())
	b.TransferTime(4)
	b.TransferTime(32)
	if b.Stats.Transfers != 2 || b.Stats.Bytes != 36 {
		t.Fatalf("stats = %+v", b.Stats)
	}
	if b.Stats.BusyTime != 90*sim.Nanosecond {
		t.Fatalf("busy = %v", b.Stats.BusyTime)
	}
}

func TestDefaultsAppliedForZeroConfig(t *testing.T) {
	b := New(Config{})
	if b.Config().WordBytes != 4 || b.Config().BeatTime != 10*sim.Nanosecond {
		t.Fatalf("zero config not defaulted: %+v", b.Config())
	}
}

// Property: transfer time is monotonic in size and exactly linear in whole
// beats.
func TestTransferTimeProperty(t *testing.T) {
	f := func(n uint16) bool {
		b := New(DefaultConfig())
		d := b.TransferTime(uint64(n))
		beats := (uint64(n) + 3) / 4
		return d == sim.Duration(beats)*10*sim.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
