// Package run is the simulator's execution layer: it owns constructing
// fully-wired machine instances from a radram.Config, and executing slices
// of independent simulation points across a worker pool.
//
// Construction used to be duplicated across the experiment functions, the
// benchmark harness, the CLIs, and the examples; every machine the
// repository runs is now built here. Each Machine carries an obs.Registry
// into which every component (processor, caches, bus, DRAM, Active-Page
// system) has registered its counters, so any run can emit one merged,
// machine-readable metrics snapshot alongside the human-readable tables.
//
// The paper's evaluation (Section 7) is a grid of independent simulations
// — seven kernels times a problem-size axis times cache/logic/latency
// sweeps. Runner + Map execute such a grid across N goroutine workers,
// each point on a fully isolated machine instance, with panic recovery
// and a deterministic, axis-ordered merge: the output of a parallel sweep
// is byte-identical to the serial one.
package run

import (
	"activepages/internal/core"
	"activepages/internal/cpu"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/proc"
	"activepages/internal/radram"
)

// Machine is one fully-wired simulated workstation plus its metrics
// registry. It embeds the radram.Machine, so benchmark code that takes
// *radram.Machine receives m.Machine.
type Machine struct {
	*radram.Machine
	// Metrics holds every component's registered counters and timers.
	Metrics *obs.Registry
}

// wrap attaches a registry to a built machine.
func wrap(rm *radram.Machine) *Machine {
	reg := obs.New()
	rm.Observe(reg)
	return &Machine{Machine: rm, Metrics: reg}
}

// NewConventional builds a machine with a conventional memory system.
func NewConventional(cfg radram.Config) *Machine {
	return wrap(radram.NewConventional(cfg))
}

// New builds a machine with a RADram Active-Page memory system.
func New(cfg radram.Config) (*Machine, error) {
	rm, err := radram.New(cfg)
	if err != nil {
		return nil, err
	}
	return wrap(rm), nil
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg radram.Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewPair builds the conventional/Active-Page machine pair every
// application study measures: two fully isolated instances of the same
// configuration, the Active-Page side on the configuration's backend
// (RADram when unset).
func NewPair(cfg radram.Config) (conv, ap *Machine, err error) {
	conv = NewConventional(cfg)
	if ap, err = New(cfg); err != nil {
		return nil, nil, err
	}
	return conv, ap, nil
}

// Snapshot reads the machine's merged metrics.
func (m *Machine) Snapshot() obs.Snapshot { return m.Metrics.Snapshot() }

// EnableTracing wires a simulated-time tracer through the machine (see
// radram.Machine.EnableTracing) and additionally registers the tracer's
// ring-overflow counter into the machine's registry, so dropped trace
// events surface in the metrics snapshot as "diag.trace_dropped_events"
// instead of vanishing silently.
func (m *Machine) EnableTracing(tr *obs.Tracer) {
	m.Machine.EnableTracing(tr)
	tr.Observe(m.Metrics)
}

// Cluster is an SMP machine: n processors sharing one backing store and
// memory hierarchy, each with its own timeline and its own Active-Page
// system view over the shared memory (the paper's Section 2/10 SMP
// sketch).
type Cluster struct {
	Config radram.Config
	Store  *mem.Store
	Hier   *memsys.Hierarchy
	CPUs   []*proc.CPU
	APs    []*core.System
	// Metrics aggregates every processor's and system's counters plus the
	// shared hierarchy's.
	Metrics *obs.Registry
}

// NewCluster builds an n-processor SMP machine from cfg.
func NewCluster(cfg radram.Config, n int) (*Cluster, error) {
	if cfg.AP.Backend == nil {
		cfg.AP.Backend = radram.CostModel{}
	}
	c := &Cluster{
		Config:  cfg,
		Store:   mem.NewStore(),
		Hier:    memsys.New(cfg.Mem),
		Metrics: obs.New(),
	}
	c.Hier.Observe(c.Metrics, "mem")
	for i := 0; i < n; i++ {
		p := proc.New(cfg.CPU, c.Hier, c.Store)
		sys, err := core.NewSystem(cfg.AP, p)
		if err != nil {
			return nil, err
		}
		p.Observe(c.Metrics, "proc")
		sys.Observe(c.Metrics, "ap")
		c.CPUs = append(c.CPUs, p)
		c.APs = append(c.APs, sys)
	}
	return c, nil
}

// ISAMachine is the instruction-level simulation tier: the MSS in-order
// core over the Table 1 memory hierarchy, executing assembled binaries.
type ISAMachine struct {
	Store   *mem.Store
	Hier    *memsys.Hierarchy
	Core    *cpu.Core
	Metrics *obs.Registry
}

// NewISA builds an instruction-level machine.
func NewISA(cpuCfg cpu.Config, memCfg memsys.Config) *ISAMachine {
	store := mem.NewStore()
	hier := memsys.New(memCfg)
	c := cpu.New(cpuCfg, hier, store)
	reg := obs.New()
	hier.Observe(reg, "mem")
	return &ISAMachine{Store: store, Hier: hier, Core: c, Metrics: reg}
}
