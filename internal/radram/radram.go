// Package radram assembles the complete simulated machines of the paper's
// evaluation: a workstation with a conventional memory system, and the same
// workstation with a RADram (Reconfigurable Architecture DRAM) memory
// system implementing Active Pages.
//
// The reference configuration is Table 1:
//
//	CPU clock     1 GHz
//	L1 I-cache    64K (2-way)
//	L1 D-cache    64K (2-way), varied 32K-256K
//	L2 cache      1M (4-way), varied 256K-4M
//	Reconf logic  100 MHz, varied 10-500 MHz
//	Cache miss    50 ns, varied 0-600 ns
//	Memory bus    32 bits / 10 ns
//
// RADram pairs each 512 KB DRAM subarray with 256 LEs of reconfigurable
// logic; package core provides the Active-Page semantics on top.
package radram

import (
	"fmt"

	"activepages/internal/backend"
	"activepages/internal/core"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/proc"
	"activepages/internal/sim"
)

// Config is the full machine configuration.
type Config struct {
	CPU proc.Config
	Mem memsys.Config
	AP  core.Config
}

// Validate checks the configuration the way the machine constructors
// would: the three caches, the DRAM and the Active-Page system. The
// constructors panic or fail on a configuration it rejects — a page smaller
// than a DRAM row, say — so a configuration built from user input (a flag,
// an API request) is validated here before anything runs.
func (c Config) Validate() error {
	for _, part := range []interface{ Validate() error }{
		c.Mem.L1I, c.Mem.L1D, c.Mem.L2, c.Mem.DRAM, c.AP,
	} {
		if err := part.Validate(); err != nil {
			return fmt.Errorf("radram: %w", err)
		}
	}
	return nil
}

// DefaultConfig returns the Table 1 reference machine with the default
// backend's cost model installed.
func DefaultConfig() Config {
	return Config{
		CPU: proc.DefaultConfig(),
		Mem: memsys.DefaultConfig(),
		AP:  core.DefaultConfig(),
	}.WithBackend(DefaultBackend().Model)
}

// WithBackend returns the configuration with a different compute backend
// installed in the Active-Page system.
func (c Config) WithBackend(b backend.ComputeBackend) Config {
	c.AP.Backend = b
	return c
}

// BackendName reports which compute backend the configuration selects.
func (c Config) BackendName() string { return c.AP.Backend.Name() }

// WithL1D returns the configuration with the L1 data cache resized
// (Figure 5 sweep: 32K-256K).
func (c Config) WithL1D(bytes uint64) Config {
	c.Mem.L1D.SizeBytes = bytes
	return c
}

// WithL2 returns the configuration with the L2 resized (Section 7.3 sweep:
// 256K-4M).
func (c Config) WithL2(bytes uint64) Config {
	c.Mem.L2.SizeBytes = bytes
	return c
}

// WithMissLatency returns the configuration with the DRAM access (cache
// miss) latency set (Figure 8 sweep: 0-600 ns).
func (c Config) WithMissLatency(d sim.Duration) Config {
	c.Mem.DRAM.AccessTime = d
	if c.Mem.DRAM.RowHitTime > d {
		c.Mem.DRAM.RowHitTime = d
	}
	return c
}

// WithLogicDivisor returns the configuration with the reconfigurable-logic
// clock divisor set (Figure 9 sweep; reference 10 = 100 MHz).
func (c Config) WithLogicDivisor(div uint64) Config {
	c.AP.LogicDivisor = div
	return c
}

// WithPageBytes returns the configuration with a different superpage size.
// Large problem-size sweeps use scaled-down pages so host memory stays
// bounded; speedup-versus-page-count shapes are preserved because both the
// conventional and Active-Page work per page scale together.
func (c Config) WithPageBytes(bytes uint64) Config {
	c.AP.PageBytes = bytes
	c.Mem.DRAM.SubarrayBytes = bytes
	return c
}

// Machine is one simulated workstation.
type Machine struct {
	Config Config
	Store  *mem.Store
	Hier   *memsys.Hierarchy
	CPU    *proc.CPU
	// AP is the Active-Page system; nil on a conventional machine.
	AP *core.System
}

// NewConventional builds a machine with a conventional memory system.
func NewConventional(cfg Config) *Machine {
	store := mem.NewStore()
	hier := memsys.New(cfg.Mem)
	cpu := proc.New(cfg.CPU, hier, store)
	return &Machine{Config: cfg, Store: store, Hier: hier, CPU: cpu}
}

// New builds a machine with an Active-Page memory system on the compute
// backend cfg.AP.Backend; a configuration without one is refused.
func New(cfg Config) (*Machine, error) {
	m := NewConventional(cfg)
	ap, err := core.NewSystem(cfg.AP, m.CPU)
	if err != nil {
		return nil, fmt.Errorf("radram: %w", err)
	}
	m.AP = ap
	return m, nil
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Observe registers every component's counters and timers — processor,
// full memory hierarchy, and (when present) the Active-Page system — into
// one registry, so a run can emit a single merged metrics snapshot.
func (m *Machine) Observe(r *obs.Registry) {
	m.CPU.Observe(r, "proc")
	m.Hier.Observe(r, "mem")
	if m.AP != nil {
		m.AP.Observe(r, "ap")
	}
}

// EnableTracing wires a simulated-time tracer through every component of
// the machine: processor compute/wait/mediation spans, memory-hierarchy
// fill and uncached spans with cache-miss instants, bus transfer spans,
// DRAM row hit/miss spans, and (on a RADram machine) one span per Active-
// Page activation on its page's track. Passing nil removes every hook,
// returning the machine to the zero-overhead untraced configuration.
// Tracing never reads or writes simulation state, so a traced run's
// timing, statistics, and results are identical to an untraced run's.
func (m *Machine) EnableTracing(tr *obs.Tracer) {
	m.CPU.SetTracer(tr)
	m.Hier.SetTracer(tr, m.CPU.Now)
	if m.AP != nil {
		m.AP.SetTracer(tr)
	}
}

// FlushTrace closes any span still open on the processor track. Call it
// after a traced workload completes, before exporting the trace.
func (m *Machine) FlushTrace() { m.CPU.FlushTrace() }

// PageBytes returns the machine's superpage size.
func (m *Machine) PageBytes() uint64 { return m.Config.AP.PageBytes }

// BackendName reports the machine's compute backend; a conventional
// machine (no Active-Page system) reports "conventional".
func (m *Machine) BackendName() string {
	if m.AP == nil {
		return "conventional"
	}
	return m.AP.Backend().Name()
}

// Elapsed returns the processor's current time — the execution time of
// whatever workload has been run on the machine.
func (m *Machine) Elapsed() sim.Time { return m.CPU.Now() }
