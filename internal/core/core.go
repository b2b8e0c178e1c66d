// Package core implements the Active Pages computation model — the paper's
// primary contribution. An Active Page is a (super)page of data plus a set
// of bound functions that the memory system executes next to the data.
//
// The interface follows Section 2 of the paper:
//
//   - Alloc corresponds to AP_alloc(group_id, vaddr): it allocates an
//     Active Page at a virtual address and places it in a page group.
//   - Bind corresponds to AP_bind(group_id, AP_functions): it associates a
//     set of functions with every page of a group. Binding is subject to
//     the implementation's area budget (256 LEs per page for RADram), so
//     applications re-bind between phases to make room, exactly as the
//     paper describes.
//   - Activation is a series of memory-mapped writes: Activate charges the
//     processor the dispatch work and the uncached control-word writes,
//     then starts the bound function on the page's data.
//   - Synchronization variables are modeled by Wait/Poll: the processor
//     polls a page's sync variable and stalls — accounted as
//     processor-memory non-overlap time — until the page completes.
//   - Inter-page references use the processor-mediated mechanism of
//     Section 3: a function touching a non-local address raises an
//     interrupt and the processor copies data between pages.
//
// Execution is functional-plus-timing: a function's Run really transforms
// the bytes of the simulated page (so application results are checkable),
// while its returned logic-cycle count, scaled by the logic clock, decides
// when the results become architecturally visible.
package core

import (
	"fmt"

	"activepages/internal/backend"
	"activepages/internal/logic"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/proc"
	"activepages/internal/sim"
)

// GroupID names a page group (the paper's group_id).
type GroupID string

// Config describes an Active-Page memory system.
type Config struct {
	// Backend is the page-compute implementation's cost model: it derives
	// the compute clock, enforces the bind-time capacity constraint, and
	// prices each activation. The RADram reference machine installs
	// radram.CostModel; NewSystem rejects a nil backend.
	Backend backend.ComputeBackend
	// PageBytes is the superpage size (paper: 512 KB).
	PageBytes uint64
	// LogicDivisor is the ratio of CPU clock to reconfigurable-logic clock.
	// The Table 1 reference is 10 (1 GHz CPU, 100 MHz logic); Figure 9
	// sweeps it from 2 to 100. Backends whose compute clock is not derived
	// from the CPU clock (bit-serial DRAM) ignore it.
	LogicDivisor uint64
	// ActivationWords is the number of memory-mapped control words the
	// processor writes to dispatch one activation (function selector plus
	// arguments).
	ActivationWords int
	// DispatchInstructions is the processor work to marshal one activation
	// request (argument computation, loop overhead in the runtime library).
	DispatchInstructions uint64
	// InterruptInstructions is the processor overhead to take one
	// inter-page service interrupt and set up the copy.
	InterruptInstructions uint64
	// ChargeBind, when set, charges reconfiguration time for every page at
	// each Bind (the paper's 2-4x page-replacement cost discussion); the
	// reference configuration treats binding as amortized.
	ChargeBind bool
}

// DefaultConfig returns the RADram reference parameters of Table 1.
func DefaultConfig() Config {
	return Config{
		PageBytes:             mem.DefaultPageBytes,
		LogicDivisor:          10,
		ActivationWords:       4,
		DispatchInstructions:  60,
		InterruptInstructions: 200,
	}
}

// minPageBytes is the smallest page Validate accepts.
const minPageBytes = 8 << 10

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageBytes == 0 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("core: page size %d not a power of two", c.PageBytes)
	}
	// The paper's 512 KiB page is the largest any experiment, the benchmark
	// or the docs use. Working sets grow with the page (under a 3 GB
	// address-space limit the quick sweep runs out of memory at 1 MiB), and
	// a Go out-of-memory error is fatal: one request could kill a shard.
	if c.PageBytes > mem.DefaultPageBytes {
		return fmt.Errorf("core: page size %d exceeds the paper's %d-byte page",
			c.PageBytes, mem.DefaultPageBytes)
	}
	// 8 KiB is the smallest page every benchmark fits. Median's 256-pixel
	// minimum row needs three input rows and one output row (2 KiB) beyond
	// the page header, and dynamic-prog's strip overruns a 4 KiB page.
	if c.PageBytes < minPageBytes {
		return fmt.Errorf("core: page size %d is below the %d-byte minimum every benchmark fits",
			c.PageBytes, minPageBytes)
	}
	if c.LogicDivisor == 0 {
		return fmt.Errorf("core: logic divisor must be >= 1")
	}
	if c.ActivationWords < 1 {
		return fmt.Errorf("core: at least one activation word is required")
	}
	return nil
}

// Result is what a Function's Run reports back to the runtime.
type Result struct {
	// LogicCycles is how many cycles of the page's reconfigurable logic
	// the invocation consumes.
	LogicCycles uint64
	// Ops is the activation's backend-neutral operation vector, priced by
	// bit-serial backends instead of LogicCycles. Functions without a
	// bit-serial port leave it zero.
	Ops backend.Ops
	// ReadyAt, when nonzero, is an additional lower bound on when the
	// computation may start (dependencies delivered by mediated copies).
	ReadyAt sim.Time
}

// Function is one member of an AP_functions set.
type Function interface {
	// Name selects the function at activation time.
	Name() string
	// Design returns the function's circuit for synthesis and area
	// accounting.
	Design() *logic.Design
	// Run performs the page computation triggered by an activation,
	// mutating page data through ctx and returning its cost.
	Run(ctx *PageContext) (Result, error)
}

// BitSerialFunction is a Function that has been ported to bit-serial
// row-parallel execution: it declares its per-subarray row reservation so
// bit-serial backends can admit it at bind time, and its Run reports a
// Result.Ops vector. Functions without this interface bind only on
// area-model backends.
type BitSerialFunction interface {
	Function
	// BitSerial returns the function's bit-serial port descriptor.
	BitSerial() backend.BitSerial
}

// Page is one Active Page.
type Page struct {
	Index uint64 // superpage number
	Base  uint64 // first byte address
	group *Group

	doneAt sim.Time
	// written is the bounding range of bytes the current activation wrote,
	// for cache invalidation.
	written mem.Range

	// Accounting for Table 4.
	Activations    uint64
	ActivationTime sim.Duration // processor time spent dispatching to this page (T_A)
	BusyTime       sim.Duration // logic time consumed (T_C)
}

// DoneAt returns when the page's last activation completes.
func (p *Page) DoneAt() sim.Time { return p.doneAt }

// Group returns the page's group id.
func (p *Page) Group() GroupID { return p.group.id }

// Group is a set of pages operating on the same data.
type Group struct {
	id    GroupID
	fns   map[string]Function
	pages []*Page
}

// Pages returns the group's pages in allocation order.
func (g *Group) Pages() []*Page { return g.pages }

// Stats accumulates system-wide Active-Page activity.
type Stats struct {
	Activations        uint64
	InterPageTransfers uint64
	InterPageBytes     uint64
	Binds              uint64
	LogicBusy          sim.Duration
	ReconfigTime       sim.Duration
}

// System is the Active-Page memory system attached to one processor.
type System struct {
	cfg        Config
	cpu        *proc.CPU
	store      *mem.Store
	hier       *memsys.Hierarchy
	geom       mem.Geometry
	backend    backend.ComputeBackend
	params     backend.Params
	logicClock sim.Clock

	groups map[GroupID]*Group
	pages  map[uint64]*Page

	// pendingMediation is processor work owed for inter-page service
	// interrupts, paid at the processor's next wait.
	pendingMediation sim.Duration

	// copyBuf is the reusable bounce buffer for inter-page copies.
	copyBuf []byte

	// dispatchHist records per-activation processor dispatch time (T_A);
	// completionHist records dispatch-to-completion latency — from the
	// first control write to the activation's results becoming visible.
	dispatchHist   *obs.Histogram
	completionHist *obs.Histogram

	// tracer is the tracing hook, nil when tracing is off: activations
	// become spans on the owning page's track.
	tracer *obs.Tracer

	Stats Stats
}

// scratch returns a reusable buffer of length n. Inter-page copies are
// synchronous and never nest, so one buffer per system suffices.
func (g *System) scratch(n uint64) []byte {
	if uint64(len(g.copyBuf)) < n {
		g.copyBuf = make([]byte, n)
	}
	return g.copyBuf[:n]
}

// NewSystem builds an Active-Page memory system sharing the CPU's store and
// hierarchy.
func NewSystem(cfg Config, cpu *proc.CPU) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("core: no compute backend configured")
	}
	geom, err := mem.NewGeometry(cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	params := backend.Params{
		CPUPeriod:    cpu.Clock().Period(),
		PageBytes:    cfg.PageBytes,
		LogicDivisor: cfg.LogicDivisor,
	}
	return &System{
		cfg:            cfg,
		cpu:            cpu,
		store:          cpu.Store(),
		hier:           cpu.Hierarchy(),
		geom:           geom,
		backend:        cfg.Backend,
		params:         params,
		logicClock:     sim.NewClockPeriod(cfg.Backend.ComputePeriod(params)),
		groups:         make(map[GroupID]*Group),
		pages:          make(map[uint64]*Page),
		dispatchHist:   obs.NewHistogram(),
		completionHist: obs.NewHistogram(),
	}, nil
}

// SetTracer enables simulated-time tracing of Active-Page activity: each
// activation becomes a span on its page's track, with dispatch instants.
// Passing nil disables it.
func (s *System) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// Observe registers the Active-Page system's counters under prefix
// (conventionally "ap").
func (s *System) Observe(r *obs.Registry, prefix string) {
	r.Counter(prefix+".activations", func() uint64 { return s.Stats.Activations })
	r.Counter(prefix+".inter_page_transfers", func() uint64 { return s.Stats.InterPageTransfers })
	r.Counter(prefix+".inter_page_bytes", func() uint64 { return s.Stats.InterPageBytes })
	r.Counter(prefix+".binds", func() uint64 { return s.Stats.Binds })
	r.Timer(prefix+".logic_busy", func() sim.Duration { return s.Stats.LogicBusy })
	r.Timer(prefix+".reconfig", func() sim.Duration { return s.Stats.ReconfigTime })
	r.Histogram(prefix+".dispatch", s.dispatchHist)
	r.Histogram(prefix+".to_completion", s.completionHist)
}

// CPU returns the attached processor.
func (s *System) CPU() *proc.CPU { return s.cpu }

// LogicClock returns the compute clock: the reconfigurable-logic clock on
// RADram, the row-operation clock on bit-serial backends.
func (s *System) LogicClock() sim.Clock { return s.logicClock }

// Backend returns the system's compute backend.
func (s *System) Backend() backend.ComputeBackend { return s.backend }

// Alloc allocates an Active Page at vaddr into group id (AP_alloc). The
// address must be superpage-aligned and not already allocated.
func (s *System) Alloc(id GroupID, vaddr uint64) (*Page, error) {
	if s.geom.PageOffset(vaddr) != 0 {
		return nil, fmt.Errorf("core: alloc %s: address %#x not page-aligned", id, vaddr)
	}
	idx := s.geom.PageIndex(vaddr)
	if _, taken := s.pages[idx]; taken {
		return nil, fmt.Errorf("core: alloc %s: page %d already allocated", id, idx)
	}
	g := s.groups[id]
	if g == nil {
		g = &Group{id: id, fns: make(map[string]Function)}
		s.groups[id] = g
	}
	p := &Page{Index: idx, Base: vaddr, group: g}
	g.pages = append(g.pages, p)
	s.pages[idx] = p
	return p, nil
}

// AllocRange allocates n consecutive pages starting at vaddr.
func (s *System) AllocRange(id GroupID, vaddr uint64, n uint64) ([]*Page, error) {
	pages := make([]*Page, 0, n)
	for i := uint64(0); i < n; i++ {
		p, err := s.Alloc(id, vaddr+i*s.cfg.PageBytes)
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// Group returns a page group by id.
func (s *System) Group(id GroupID) (*Group, bool) {
	g, ok := s.groups[id]
	return g, ok
}

// Table4Totals sums Table 4's accounting over every page activated at
// least once: how many there are, and their total T_A and T_C.
func (s *System) Table4Totals() (pages uint64, activation, busy sim.Duration) {
	for _, p := range s.pages {
		if p.Activations > 0 {
			pages++
			activation += p.ActivationTime
			busy += p.BusyTime
		}
	}
	return pages, activation, busy
}

// PageAt returns the Active Page containing addr, if allocated.
func (s *System) PageAt(addr uint64) (*Page, bool) {
	p, ok := s.pages[s.geom.PageIndex(addr)]
	return p, ok
}

// bindingOf describes a function to the backend's capacity model.
func bindingOf(fn Function) backend.Binding {
	b := backend.Binding{Name: fn.Name(), Design: fn.Design()}
	if bs, ok := fn.(BitSerialFunction); ok {
		port := bs.BitSerial()
		b.BitSerial = &port
	}
	return b
}

// Bind associates a function set with a group (AP_bind), replacing any
// previous set. The combined footprint of the set must fit the backend's
// per-page capacity budget (256 LEs on RADram, the compute-row budget on
// bit-serial backends); applications with larger repertoires re-bind
// between phases.
func (s *System) Bind(id GroupID, fns ...Function) error {
	g := s.groups[id]
	if g == nil {
		return fmt.Errorf("core: bind: unknown group %q", id)
	}
	set := make([]backend.Binding, len(fns))
	for i, fn := range fns {
		set[i] = bindingOf(fn)
	}
	if err := s.backend.CheckBind(s.params, set); err != nil {
		return fmt.Errorf("core: bind %s: %w", id, err)
	}
	g.fns = make(map[string]Function, len(fns))
	for _, fn := range fns {
		g.fns[fn.Name()] = fn
	}
	reconfig := s.backend.BindCost(s.params, set, s.logicClock)
	s.Stats.Binds++
	if s.cfg.ChargeBind && len(g.pages) > 0 {
		// Pages reconfigure in parallel; the processor streams one
		// bitstream onto the memory bus and all pages of the group latch
		// it. Charge one reconfiguration interval as non-overlap.
		s.Stats.ReconfigTime += reconfig
		s.cpu.StallUntil(s.cpu.Now() + reconfig)
	}
	return nil
}

// Activate dispatches function fnName on page p with the given arguments.
// It models the paper's activation: processor-side marshalling plus
// memory-mapped control writes, then page computation in the logic clock
// domain. The call returns as soon as the dispatch is charged; the page
// computes "in the background" until its completion time.
func (s *System) Activate(p *Page, fnName string, args ...uint64) error {
	fn := p.group.fns[fnName]
	if fn == nil {
		return fmt.Errorf("core: activate page %d: function %q not bound to group %q",
			p.Index, fnName, p.group.id)
	}
	before := s.cpu.Now()

	// Processor-side dispatch: marshalling plus control-word writes into
	// the page's synchronization area.
	s.cpu.Compute(s.cfg.DispatchInstructions)
	words := s.cfg.ActivationWords
	if len(args)+1 > words {
		words = len(args) + 1
	}
	ctl := p.Base // control block lives at the head of the page's sync area
	for w := 0; w < words; w++ {
		s.cpu.UncachedStoreU32(ctl+uint64(w)*4, 0)
	}

	// Page-side execution: functional now, visible at completion time.
	ctx := &PageContext{sys: s, page: p, Args: args}
	res, err := fn.Run(ctx)
	if err != nil {
		return fmt.Errorf("core: activate page %d (%s): %w", p.Index, fnName, err)
	}

	busy, err := s.backend.Busy(s.params, backend.Work{LogicCycles: res.LogicCycles, Ops: res.Ops}, s.logicClock)
	if err != nil {
		return fmt.Errorf("core: activate page %d (%s): %w", p.Index, fnName, err)
	}

	start := s.cpu.Now()
	if p.doneAt > start {
		start = p.doneAt // page logic is busy with a previous activation
	}
	if res.ReadyAt > start {
		start = res.ReadyAt // waiting on mediated inter-page data
	}
	p.doneAt = start + busy

	// Coherence: drop any cached copies of the bytes the function rewrote.
	if ctx.written.Len > 0 {
		s.hier.Invalidate(ctx.written.Addr, ctx.written.Len)
		p.written = ctx.written
	}

	p.Activations++
	p.BusyTime += busy
	p.ActivationTime += s.cpu.Now() - before
	s.Stats.Activations++
	s.Stats.LogicBusy += busy
	s.dispatchHist.Observe(s.cpu.Now() - before)
	s.completionHist.Observe(p.doneAt - before)
	if s.tracer != nil {
		tid := obs.TIDPageBase + int32(p.Index)
		s.tracer.Instant(tid, "ap", "dispatch", before)
		s.tracer.SpanArg(tid, "ap", fnName, start, busy, int64(res.LogicCycles))
	}
	return nil
}

// Poll models one read of a page's synchronization variable: it charges an
// uncached word read and reports whether the page has completed.
func (s *System) Poll(p *Page) bool {
	s.cpu.UncachedLoadU32(p.Base)
	return p.doneAt <= s.cpu.Now()
}

// Wait blocks the processor until page p completes, paying any owed
// mediation work first and accounting the remaining wait as non-overlap
// time. It charges the final successful poll read.
func (s *System) Wait(p *Page) {
	s.payMediation()
	s.cpu.StallUntil(p.doneAt)
	s.cpu.UncachedLoadU32(p.Base)
}

// WaitGroup waits for every page in the group.
func (s *System) WaitGroup(id GroupID) error {
	g := s.groups[id]
	if g == nil {
		return fmt.Errorf("core: wait: unknown group %q", id)
	}
	s.payMediation()
	var last sim.Time
	for _, p := range g.pages {
		if p.doneAt > last {
			last = p.doneAt
		}
	}
	s.cpu.StallUntil(last)
	s.cpu.UncachedLoadU32(g.pages[len(g.pages)-1].Base)
	return nil
}

// payMediation charges the processor for accumulated inter-page interrupt
// service.
func (s *System) payMediation() {
	if s.pendingMediation > 0 {
		s.cpu.MediationWork(s.pendingMediation)
		s.pendingMediation = 0
	}
}

// mediationCost is the processor time to service one inter-page copy of n
// bytes: interrupt entry plus a read and write of each bus word.
func (s *System) mediationCost(n uint64) sim.Duration {
	d := s.cpu.Clock().Cycles(s.cfg.InterruptInstructions)
	// The copy itself crosses the bus twice (page -> processor -> page).
	d += s.hier.Bus.TransferTime(n) * 2
	return d
}
