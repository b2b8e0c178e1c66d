// Package proc provides the task-level processor model used by the
// application studies: an execution-driven CPU whose programs are Go
// functions that issue loads, stores, and compute work against the
// simulated memory hierarchy.
//
// The model's job is accounting. Every operation advances the processor's
// clock and lands in one of four buckets:
//
//   - compute time: instruction issue (the application's real work)
//   - memory-stall time: waiting on the cache/bus/DRAM for its own accesses
//   - non-overlap time: waiting for Active-Page computation (the paper's
//     processor-memory non-overlap metric, Figure 4)
//   - mediation time: servicing inter-page communication interrupts on
//     behalf of the Active-Page memory system (Section 3)
//
// The same application algorithms run against a conventional configuration
// (no Active Pages) and a RADram configuration; the buckets produce every
// derived quantity in the paper's evaluation.
package proc

import (
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/sim"
)

// Config describes the processor.
type Config struct {
	// ClockHz is the core clock (Table 1 reference: 1 GHz).
	ClockHz uint64
	// FPMulLatency is the charge, in cycles, of one floating-point multiply
	// issued by Compute-side code (pipelined FPU: throughput 1/cycle, so
	// the default charge is 1; latency is hidden by the paper's assumption
	// that the processor runs "at peak floating-point speeds" when fed).
	FPMulLatency uint64
}

// DefaultConfig returns the Table 1 reference processor.
func DefaultConfig() Config {
	return Config{ClockHz: 1_000_000_000, FPMulLatency: 1}
}

// Stats is the processor time ledger.
type Stats struct {
	ComputeTime    sim.Duration
	MemStallTime   sim.Duration
	NonOverlapTime sim.Duration
	MediationTime  sim.Duration

	Instructions uint64
	Loads        uint64
	Stores       uint64
	FPOps        uint64
}

// TotalTime is the sum of all buckets.
func (s Stats) TotalTime() sim.Duration {
	return s.ComputeTime + s.MemStallTime + s.NonOverlapTime + s.MediationTime
}

// NonOverlapFraction is the share of total time spent stalled on Active-
// Page computation: the y-axis of Figure 4.
func (s Stats) NonOverlapFraction() float64 {
	t := s.TotalTime()
	if t == 0 {
		return 0
	}
	return float64(s.NonOverlapTime) / float64(t)
}

// CPU is the task-level processor.
type CPU struct {
	cfg   Config
	clock sim.Clock
	hier  *memsys.Hierarchy
	store *mem.Store
	now   sim.Time
	Stats Stats

	// Interrupt, when set, is polled periodically from the access paths (and
	// once per Stream call). A non-nil return unwinds the simulated program
	// with a CancelPanic carrying that error; run.Map translates it back
	// into a clean error. The hook makes an in-flight simulation point
	// cancelable mid-run — without it, only point boundaries observe
	// cancellation. It must stay nil when cancellation is not in play so the
	// hot path pays a single predictable branch.
	Interrupt func() error
	intrOps   uint64

	// tracer is the tracing hook, nil when tracing is off; every use is
	// behind a nil check so the untraced hot path pays one branch at most.
	// Consecutive compute work (including the L1-hit share of accesses) is
	// coalesced into one open span, flushed when the processor stalls.
	tracer       *obs.Tracer
	computeStart sim.Time
	computeOpen  bool
}

// New builds a CPU over the hierarchy and backing store.
func New(cfg Config, h *memsys.Hierarchy, store *mem.Store) *CPU {
	if cfg.ClockHz == 0 {
		cfg = DefaultConfig()
	}
	if cfg.FPMulLatency == 0 {
		cfg.FPMulLatency = 1
	}
	return &CPU{cfg: cfg, clock: sim.NewClock(cfg.ClockHz), hier: h, store: store}
}

// Clock returns the core clock.
func (c *CPU) Clock() sim.Clock { return c.clock }

// Hierarchy returns the memory hierarchy the CPU issues into.
func (c *CPU) Hierarchy() *memsys.Hierarchy { return c.hier }

// Store returns the simulated backing store.
func (c *CPU) Store() *mem.Store { return c.store }

// Now returns the processor's current time.
func (c *CPU) Now() sim.Time { return c.now }

// SetTracer enables simulated-time tracing on the processor track:
// coalesced compute intervals, Active-Page waits, and mediation service.
// Passing nil disables it.
func (c *CPU) SetTracer(tr *obs.Tracer) {
	c.tracer = tr
	c.computeOpen = false
}

// markCompute opens (or extends) the running compute span at start.
func (c *CPU) markCompute(start sim.Time) {
	if !c.computeOpen {
		c.computeStart = start
		c.computeOpen = true
	}
}

// FlushTrace emits any pending compute span up to the current time. Call
// it when a traced run ends; it is harmless (and a no-op) otherwise.
func (c *CPU) FlushTrace() { c.flushCompute(c.now) }

// flushCompute closes the running compute span at end.
func (c *CPU) flushCompute(end sim.Time) {
	if c.computeOpen {
		c.computeOpen = false
		if end > c.computeStart {
			c.tracer.Span(obs.TIDCPU, "proc", "compute", c.computeStart, end-c.computeStart)
		}
	}
}

// Observe registers the processor's time ledger and operation counts
// under prefix (conventionally "proc").
func (c *CPU) Observe(r *obs.Registry, prefix string) {
	r.Timer(prefix+".compute", func() sim.Duration { return c.Stats.ComputeTime })
	r.Timer(prefix+".mem_stall", func() sim.Duration { return c.Stats.MemStallTime })
	r.Timer(prefix+".non_overlap", func() sim.Duration { return c.Stats.NonOverlapTime })
	r.Timer(prefix+".mediation", func() sim.Duration { return c.Stats.MediationTime })
	r.Counter(prefix+".instructions", func() uint64 { return c.Stats.Instructions })
	r.Counter(prefix+".loads", func() uint64 { return c.Stats.Loads })
	r.Counter(prefix+".stores", func() uint64 { return c.Stats.Stores })
	r.Counter(prefix+".fp_ops", func() uint64 { return c.Stats.FPOps })
	// Elapsed time is a wall-style reading of this machine's clock, not an
	// accumulation, so it merges across runs by max, not sum.
	r.Gauge(prefix+".elapsed_ns", func() int64 { return int64(c.now / sim.Nanosecond) })
}

// Compute charges n instructions of busy time at one cycle each.
func (c *CPU) Compute(n uint64) {
	if c.tracer != nil {
		c.markCompute(c.now)
	}
	d := c.clock.Cycles(n)
	c.now += d
	c.Stats.ComputeTime += d
	c.Stats.Instructions += n
}

// ComputeFP charges n floating-point operations (multiply-class) plus their
// issue.
func (c *CPU) ComputeFP(n uint64) {
	if c.tracer != nil {
		c.markCompute(c.now)
	}
	d := c.clock.Cycles(n * c.cfg.FPMulLatency)
	c.now += d
	c.Stats.ComputeTime += d
	c.Stats.Instructions += n
	c.Stats.FPOps += n
}

// interruptMask paces the cancellation poll: one hook call per ~64K scalar
// accesses, cheap enough to disappear into the access cost yet fine-grained
// enough that a canceled point unwinds within a sliver of its runtime.
const interruptMask = 1<<16 - 1

// pollInterrupt runs the cancellation hook on its pacing schedule.
func (c *CPU) pollInterrupt() {
	if c.Interrupt == nil {
		return
	}
	if c.intrOps++; c.intrOps&interruptMask == 0 {
		if err := c.Interrupt(); err != nil {
			panic(CancelPanic{Err: err})
		}
	}
}

// access charges a data access, splitting hit time into compute and the
// remainder into memory stall.
func (c *CPU) access(addr, size uint64, kind memsys.AccessKind) {
	c.pollInterrupt()
	if c.tracer != nil {
		c.markCompute(c.now)
	}
	t := c.hier.Access(addr, size, kind)
	hit := c.hier.L1HitTime()
	if kind == memsys.UncachedRead || kind == memsys.UncachedWrite {
		hit = 0
	}
	if t < hit {
		hit = t
	}
	if c.tracer != nil && t > hit {
		// The access stalled: close the compute span at issue time; the
		// hierarchy has emitted the matching fill/uncached span.
		c.flushCompute(c.now)
	}
	c.now += t
	c.Stats.ComputeTime += hit
	c.Stats.MemStallTime += t - hit
	c.Stats.Instructions++
	if kind == memsys.Read || kind == memsys.UncachedRead {
		c.Stats.Loads++
	} else {
		c.Stats.Stores++
	}
}

// The typed accessors perform a functional load/store on the backing store
// and charge its timing through the cache hierarchy.

// LoadU16 loads a 16-bit value.
func (c *CPU) LoadU16(addr uint64) uint16 {
	c.access(addr, 2, memsys.Read)
	return c.store.ReadU16(addr)
}

// LoadU32 loads a 32-bit value.
func (c *CPU) LoadU32(addr uint64) uint32 {
	c.access(addr, 4, memsys.Read)
	return c.store.ReadU32(addr)
}

// LoadU64 loads a 64-bit value.
func (c *CPU) LoadU64(addr uint64) uint64 {
	c.access(addr, 8, memsys.Read)
	return c.store.ReadU64(addr)
}

// StoreU32 stores a 32-bit value.
func (c *CPU) StoreU32(addr uint64, v uint32) {
	c.access(addr, 4, memsys.Write)
	c.store.WriteU32(addr, v)
}

// StoreU64 stores a 64-bit value.
func (c *CPU) StoreU64(addr uint64, v uint64) {
	c.access(addr, 8, memsys.Write)
	c.store.WriteU64(addr, v)
}

// ReadBlock loads n bytes into p, charged as sequential word reads through
// the caches.
func (c *CPU) ReadBlock(addr uint64, p []byte) {
	c.access(addr, uint64(len(p)), memsys.Read)
	c.store.Read(addr, p)
}

// WriteBlock stores p, charged as sequential word writes through the
// caches.
func (c *CPU) WriteBlock(addr uint64, p []byte) {
	c.access(addr, uint64(len(p)), memsys.Write)
	c.store.Write(addr, p)
}

// Stream charges n iterations of a fixed-stride access pattern plus
// computePerIter instructions per iteration, routing the memory timing
// through the hierarchy's stream-folding layer. The ledger comes out
// exactly as the equivalent scalar loop's would — per iteration, each
// pattern entry as Count accesses followed by Compute(computePerIter); every bucket is a sum, and sums are
// order-independent — so folding changes wall-clock only, never a
// measurement. On a Reference hierarchy or with tracing on, the scalar loop
// itself runs, preserving the per-access trace span structure.
//
// Stream performs no functional data movement: callers mirror values
// host-side or move bytes in bulk on the store, exactly as the Active-Page
// side already does.
func (c *CPU) Stream(base uint64, stride int64, n uint64, accs []memsys.StreamAcc, computePerIter uint64) {
	if n == 0 {
		return
	}
	l := loopNest{base: base, outerN: 1, innerStride: stride, innerN: n, accs: accs, innerCpi: computePerIter}
	if !c.runScalar(&l) {
		c.chargeNest(&l, c.hier.StreamRun(base, stride, n, accs))
	}
}

// NestedStream charges a two-level loop nest through the hierarchy's
// nested stream layer: outerN macro-iterations, each running innerN inner
// iterations of accs (at base + i·outerStride + j·innerStride + Off, with
// per-entry Stride overrides) plus innerCpi instructions, then every entry
// of tail once (at base + i·outerStride + Off) plus tailCpi instructions.
// The ledger comes out exactly as the equivalent two-level scalar loop's
// would — every bucket is a sum, and sums are order-independent — so outer
// folding changes wall-clock only, never a measurement. On a Reference
// hierarchy or with tracing on, the scalar nest itself runs. Like Stream,
// NestedStream moves no data: callers mirror values host-side.
func (c *CPU) NestedStream(base uint64, outerStride int64, outerN uint64,
	innerStride int64, innerN uint64, accs []memsys.StreamAcc, innerCpi uint64,
	tail []memsys.StreamAcc, tailCpi uint64) {
	if outerN == 0 {
		return
	}
	l := loopNest{base, outerStride, outerN, innerStride, innerN, accs, innerCpi, tail, tailCpi}
	if !c.runScalar(&l) {
		c.chargeNest(&l, c.hier.NestedStreamRun(base, outerStride, outerN, innerStride, innerN, accs, tail))
	}
}

// loopNest is the loop Stream and NestedStream charge: outerN
// macro-iterations, the i-th based at base + i·outerStride, each running
// innerN iterations of accs plus innerCpi instructions apiece, then every
// entry of tail once plus tailCpi instructions. A flat stream is the nest
// of one macro-iteration whose inner loop is the stream.
type loopNest struct {
	base        uint64
	outerStride int64
	outerN      uint64
	innerStride int64
	innerN      uint64
	accs        []memsys.StreamAcc
	innerCpi    uint64
	tail        []memsys.StreamAcc
	tailCpi     uint64
}

// runScalar polls the cancellation hook once — a single stream call can
// stand in for an arbitrarily long loop, so the paced per-access poll never
// fires inside its fast path — and then, unless the stream layer may take
// l, runs l as the scalar loop itself and reports true. The scalar loop is
// the oracle on a Reference hierarchy, keeps the per-access span structure
// when tracing, and takes any uncached entry: chargeNest's ledger split
// assumes every access costs at least L1HitTime.
func (c *CPU) runScalar(l *loopNest) bool {
	if c.Interrupt != nil {
		if err := c.Interrupt(); err != nil {
			panic(CancelPanic{Err: err})
		}
	}
	scalar := c.hier.Reference || c.tracer != nil
	for _, s := range [2][]memsys.StreamAcc{l.accs, l.tail} {
		for k := range s {
			scalar = scalar || (s[k].Kind != memsys.Read && s[k].Kind != memsys.Write)
		}
	}
	if !scalar {
		return false
	}
	for i := uint64(0); i < l.outerN; i++ {
		b := l.base + uint64(l.outerStride)*i
		for j := uint64(0); j < l.innerN; j++ {
			for k := range l.accs {
				c.streamAccess(b, l.innerStride, j, &l.accs[k])
			}
			if l.innerCpi > 0 {
				c.Compute(l.innerCpi)
			}
		}
		for k := range l.tail {
			c.streamAccess(b, 0, 0, &l.tail[k])
		}
		if l.tailCpi > 0 {
			c.Compute(l.tailCpi)
		}
	}
	return true
}

// streamAccess charges entry a of iteration i of a stream based at base:
// Count consecutive Size-byte accesses (one when Count is 0). The entry's
// own Stride, when set, overrides stride.
func (c *CPU) streamAccess(base uint64, stride int64, i uint64, a *memsys.StreamAcc) {
	if a.Stride != 0 {
		stride = a.Stride
	}
	addr := base + uint64(stride)*i + uint64(a.Off)
	for k := range max(a.Count, 1) {
		c.access(addr+k*a.Size, a.Size, a.Kind)
	}
}

// chargeNest books t, the stream layer's latency for l, into the ledger
// exactly as l's scalar loop would have: every cached access costs at least
// L1HitTime, so the hit share of the batch is compute and the rest stall.
func (c *CPU) chargeNest(l *loopNest, t sim.Duration) {
	inner, innerLoads := accessCount(l.accs)
	tail, tailLoads := accessCount(l.tail)
	total := l.outerN * (l.innerN*inner + tail)
	loads := l.outerN * (l.innerN*innerLoads + tailLoads)
	hitTotal := sim.Duration(total) * c.hier.L1HitTime()
	if t < hitTotal {
		hitTotal = t // cannot happen for cached accesses; defensive
	}
	c.now += t
	c.Stats.ComputeTime += hitTotal
	c.Stats.MemStallTime += t - hitTotal
	c.Stats.Instructions += total
	c.Stats.Loads += loads
	c.Stats.Stores += total - loads
	if cpi := l.innerN*l.innerCpi + l.tailCpi; cpi > 0 {
		c.Compute(l.outerN * cpi)
	}
}

// accessCount returns how many accesses one pass over accs performs, and
// how many of them are loads.
func accessCount(accs []memsys.StreamAcc) (n, loads uint64) {
	for k := range accs {
		cnt := max(accs[k].Count, 1)
		n += cnt
		if accs[k].Kind == memsys.Read {
			loads += cnt
		}
	}
	return n, loads
}

// TouchLoad charges the timing of a size-byte load whose value the caller
// mirrors host-side: identical hierarchy traffic and ledger to LoadU32 and
// friends, with the functional store read elided.
func (c *CPU) TouchLoad(addr, size uint64) { c.access(addr, size, memsys.Read) }

// TouchStore charges the timing of a size-byte store whose bytes the
// caller moves in bulk on the store afterwards: identical hierarchy traffic
// and ledger to StoreU32 and friends, with the functional write elided.
func (c *CPU) TouchStore(addr, size uint64) { c.access(addr, size, memsys.Write) }

// UncachedLoadU32 reads a word around the caches — an Active-Page
// synchronization variable or output area read.
func (c *CPU) UncachedLoadU32(addr uint64) uint32 {
	c.access(addr, 4, memsys.UncachedRead)
	return c.store.ReadU32(addr)
}

// UncachedStoreU32 writes a word around the caches — an activation or
// synchronization-variable write.
func (c *CPU) UncachedStoreU32(addr uint64, v uint32) {
	c.access(addr, 4, memsys.UncachedWrite)
	c.store.WriteU32(addr, v)
}

// UncachedReadBlock reads a block around the caches (Active-Page output
// areas, gathered in cache-line units over the bus).
func (c *CPU) UncachedReadBlock(addr uint64, p []byte) {
	c.access(addr, uint64(len(p)), memsys.UncachedRead)
	c.store.Read(addr, p)
}

// UncachedWriteBlock writes a block around the caches.
func (c *CPU) UncachedWriteBlock(addr uint64, p []byte) {
	c.access(addr, uint64(len(p)), memsys.UncachedWrite)
	c.store.Write(addr, p)
}

// StallUntil advances the clock to t, recording the wait as non-overlap
// time (stalled on Active-Page computation). It is a no-op if t is in the
// past.
func (c *CPU) StallUntil(t sim.Time) {
	if t > c.now {
		if c.tracer != nil {
			c.flushCompute(c.now)
			c.tracer.Span(obs.TIDCPU, "proc", "ap_wait", c.now, t-c.now)
		}
		c.Stats.NonOverlapTime += t - c.now
		c.now = t
	}
}

// MediationWork charges d of processor time spent servicing inter-page
// communication on behalf of the memory system.
func (c *CPU) MediationWork(d sim.Duration) {
	if c.tracer != nil {
		c.flushCompute(c.now)
		c.tracer.Span(obs.TIDCPU, "proc", "mediation", c.now, d)
	}
	c.now += d
	c.Stats.MediationTime += d
}
