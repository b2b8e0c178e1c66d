package radram

import (
	"strings"
	"testing"

	"activepages/internal/sim"
)

func TestDefaultConfigIsTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CPU.ClockHz != 1_000_000_000 {
		t.Error("CPU clock is not 1 GHz")
	}
	if cfg.AP.LogicDivisor != 10 {
		t.Error("logic divisor is not 10 (100 MHz)")
	}
	if cfg.AP.PageBytes != 512*1024 {
		t.Error("page size is not 512K")
	}
	if cfg.Mem.DRAM.AccessTime != 50*sim.Nanosecond {
		t.Error("miss latency is not 50 ns")
	}
}

func TestConfigBuilders(t *testing.T) {
	cfg := DefaultConfig().
		WithL1D(32 * 1024).
		WithL2(4 * 1024 * 1024).
		WithMissLatency(100 * sim.Nanosecond).
		WithLogicDivisor(50).
		WithPageBytes(64 * 1024)
	if cfg.Mem.L1D.SizeBytes != 32*1024 {
		t.Error("WithL1D failed")
	}
	if cfg.Mem.L2.SizeBytes != 4*1024*1024 {
		t.Error("WithL2 failed")
	}
	if cfg.Mem.DRAM.AccessTime != 100*sim.Nanosecond {
		t.Error("WithMissLatency failed")
	}
	if cfg.AP.LogicDivisor != 50 {
		t.Error("WithLogicDivisor failed")
	}
	if cfg.AP.PageBytes != 64*1024 || cfg.Mem.DRAM.SubarrayBytes != 64*1024 {
		t.Error("WithPageBytes must resize subarrays too")
	}
}

func TestWithMissLatencyZeroClampsRowHit(t *testing.T) {
	cfg := DefaultConfig().WithMissLatency(0)
	if cfg.Mem.DRAM.RowHitTime != 0 {
		t.Fatal("zero miss latency must clamp row-hit time (Figure 8's 0ns point)")
	}
	if err := cfg.Mem.DRAM.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConventionalMachineHasNoAP(t *testing.T) {
	m := NewConventional(DefaultConfig())
	if m.AP != nil {
		t.Fatal("conventional machine has an Active-Page system")
	}
	if m.CPU == nil || m.Store == nil || m.Hier == nil {
		t.Fatal("machine missing components")
	}
}

func TestRADramMachine(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.AP == nil {
		t.Fatal("RADram machine missing the Active-Page system")
	}
	if m.AP.CPU() != m.CPU {
		t.Fatal("Active-Page system not attached to the machine CPU")
	}
	if m.PageBytes() != 512*1024 {
		t.Fatal("page size accessor wrong")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AP.PageBytes = 12345 // not a power of two
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid page size accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on a bad config")
		}
	}()
	MustNew(cfg)
}

// TestConfigValidate pins the page-size bounds: every page size from one
// DRAM row up to the paper's 512 KiB validates, while a smaller page — on
// which the machine constructors panic — a larger one, and every
// component's own error are rejected.
func TestConfigValidate(t *testing.T) {
	for pb := uint64(2048); pb <= 512*1024; pb *= 2 {
		if err := DefaultConfig().WithPageBytes(pb).Validate(); err != nil {
			t.Errorf("page %d: %v", pb, err)
		}
	}
	for _, pb := range []uint64{0, 16, 1024, 3000, 1 << 20, 1 << 40} {
		if err := DefaultConfig().WithPageBytes(pb).Validate(); err == nil {
			t.Errorf("page %d accepted", pb)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewConventional accepted a page smaller than a DRAM row")
			}
		}()
		NewConventional(DefaultConfig().WithPageBytes(16))
	}()

	breaks := map[string]func(*Config){
		"L1I":  func(c *Config) { c.Mem.L1I.Assoc = 0 },
		"L1D":  func(c *Config) { c.Mem.L1D.LineBytes = 24 },
		"L2":   func(c *Config) { c.Mem.L2.SizeBytes = 3 << 20 },
		"dram": func(c *Config) { c.Mem.DRAM.RowHitTime = c.Mem.DRAM.AccessTime + 1 },
		"core": func(c *Config) { c.AP.LogicDivisor = 0 },
	}
	for name, brk := range breaks {
		cfg := DefaultConfig()
		brk(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", name, err, name)
		}
	}
}

func TestElapsedTracksCPU(t *testing.T) {
	m := NewConventional(DefaultConfig())
	m.CPU.Compute(1000)
	if m.Elapsed() != 1*sim.Microsecond {
		t.Fatalf("elapsed = %v", m.Elapsed())
	}
}
