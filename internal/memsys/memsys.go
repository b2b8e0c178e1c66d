// Package memsys composes the cache, bus, and DRAM models into the memory
// hierarchy of the simulated workstation: split L1 instruction/data caches,
// a unified L2, a 32-bit memory bus, and a subarrayed DRAM device.
//
// The hierarchy is a latency model: every access reports how long it takes
// and updates occupancy state. It also implements the coherence action the
// Active-Page runtime needs — invalidating cached copies of page data that
// an in-memory function has rewritten.
package memsys

import (
	"activepages/internal/bus"
	"activepages/internal/cache"
	"activepages/internal/dram"
	"activepages/internal/obs"
	"activepages/internal/sim"
)

// Config describes the whole hierarchy. The defaults reproduce Table 1 of
// the paper.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	// L1HitTime and L2HitTime are access latencies for hits at each level.
	L1HitTime sim.Duration
	L2HitTime sim.Duration
	Bus       bus.Config
	DRAM      dram.Config
}

// DefaultConfig returns the paper's reference hierarchy: 64K 2-way split L1,
// 1M 4-way L2 (Section 7.3), 32-byte lines, 50 ns miss, 32-bit/10 ns bus.
func DefaultConfig() Config {
	return Config{
		L1I:       cache.Config{Name: "L1I", SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2},
		L1D:       cache.Config{Name: "L1D", SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2},
		L2:        cache.Config{Name: "L2", SizeBytes: 1024 * 1024, LineBytes: 32, Assoc: 4},
		L1HitTime: 1 * sim.Nanosecond,
		L2HitTime: 8 * sim.Nanosecond,
		Bus:       bus.DefaultConfig(),
		DRAM:      dram.DefaultConfig(),
	}
}

// AccessKind selects the path an access takes through the hierarchy.
type AccessKind int

const (
	// Fetch is an instruction fetch through the L1 I-cache.
	Fetch AccessKind = iota
	// Read is a data load through the L1 D-cache.
	Read
	// Write is a data store through the L1 D-cache (write-allocate).
	Write
	// UncachedRead bypasses the caches: a read of Active-Page control or
	// output data that must observe memory directly.
	UncachedRead
	// UncachedWrite bypasses the caches: a write to Active-Page control
	// space (activation writes, synchronization variables).
	UncachedWrite
)

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg  Config
	L1I  *cache.Cache
	L1D  *cache.Cache
	L2   *cache.Cache
	Bus  *bus.Bus
	DRAM *dram.Device

	// UncachedAccesses counts accesses that bypassed the caches.
	UncachedAccesses uint64

	// Reference disables the batched fast paths: AccessElems degrades to a
	// per-element Access loop, AccessRange probes every line through the
	// full chain, and StreamRun never folds. It is the single reference
	// switch: a proc.CPU over a Reference hierarchy also issues its slice
	// and stream accesses one scalar access at a time. Timing and
	// statistics must be identical either way — the equivalence tests run
	// one machine in each mode and diff everything.
	Reference bool

	// Folds counts the stream-folding layer's decisions. Observe registers
	// every counter under "diag.", the namespace the equivalence checks
	// strip (obs.Snapshot.WithoutDiag): folded and scalar runs count
	// differently here while every other metric stays identical.
	Folds FoldStats

	// fold holds the folding layer's reusable scratch, allocated on first
	// use so hierarchies that never stream pay nothing.
	fold *foldScratch

	// fillHist records the latency of every L1-miss fill; uncachedHist the
	// latency of every uncached access. Both record at points the fast and
	// reference pipelines reach identically, so snapshots stay equivalent.
	fillHist     *obs.Histogram
	uncachedHist *obs.Histogram

	// tracer and now are the tracing hooks, nil when tracing is off. They
	// are consulted only off the single-line hit path (miss fills and
	// uncached accesses), so an untraced machine pays nothing and a traced
	// one pays a nil check on paths that already walk the full chain.
	tracer *obs.Tracer
	now    func() sim.Time
}

// New builds the hierarchy. It panics on invalid cache configuration.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:          cfg,
		L1I:          cache.New(cfg.L1I),
		L1D:          cache.New(cfg.L1D),
		L2:           cache.New(cfg.L2),
		Bus:          bus.New(cfg.Bus),
		DRAM:         dram.New(cfg.DRAM),
		fillHist:     obs.NewHistogram(),
		uncachedHist: obs.NewHistogram(),
	}
}

// SetTracer enables simulated-time tracing: fills and uncached accesses
// become spans on the mem track, and nil-guarded hooks are installed on
// the caches (miss instants), bus (transfer spans), and DRAM (row hit/miss
// spans). now supplies the current simulated time — conventionally the
// attached processor's clock, read at the start of each access. Passing a
// nil tracer removes every hook.
func (h *Hierarchy) SetTracer(tr *obs.Tracer, now func() sim.Time) {
	if tr == nil || now == nil {
		h.tracer, h.now = nil, nil
		h.L1I.OnMiss, h.L1D.OnMiss, h.L2.OnMiss = nil, nil, nil
		h.Bus.OnTransfer = nil
		h.DRAM.OnAccess = nil
		return
	}
	h.tracer, h.now = tr, now
	h.L1I.OnMiss = func(uint64) { tr.Instant(obs.TIDMem, "cache", "l1i_miss", now()) }
	h.L1D.OnMiss = func(uint64) { tr.Instant(obs.TIDMem, "cache", "l1d_miss", now()) }
	h.L2.OnMiss = func(uint64) { tr.Instant(obs.TIDMem, "cache", "l2_miss", now()) }
	h.Bus.OnTransfer = func(bytes uint64, d sim.Duration) {
		tr.SpanArg(obs.TIDBus, "bus", "transfer", now(), d, int64(bytes))
	}
	h.DRAM.OnAccess = func(_ uint64, rowHit bool, d sim.Duration) {
		if rowHit {
			tr.Span(obs.TIDDRAM, "dram", "row_hit", now(), d)
		} else {
			tr.Span(obs.TIDDRAM, "dram", "row_miss", now(), d)
		}
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1HitTime returns the L1 hit latency without copying the whole Config —
// the processors read it on every scalar access.
func (h *Hierarchy) L1HitTime() sim.Duration { return h.cfg.L1HitTime }

// Observe registers the whole hierarchy's counters — its own plus every
// level's — under prefix (conventionally "mem").
func (h *Hierarchy) Observe(r *obs.Registry, prefix string) {
	r.Counter(prefix+".uncached_accesses", func() uint64 { return h.UncachedAccesses })
	r.Histogram(prefix+".fill", h.fillHist)
	r.Histogram(prefix+".uncached", h.uncachedHist)
	// Stream-fold engagement counters, in the diagnostic namespace: they
	// describe which simulation pipeline ran, not the simulated machine,
	// so the equivalence tests exclude them (obs.Snapshot.WithoutDiag)
	// while -json snapshots and /metrics expose them.
	d := prefix + "." + obs.DiagPrefix
	r.Counter(d+"fold_streams", func() uint64 { return h.Folds.Streams })
	r.Counter(d+"fold_nested_streams", func() uint64 { return h.Folds.NestedStreams })
	r.Counter(d+"fold_engaged", func() uint64 { return h.Folds.Folded })
	r.Counter(d+"fold_folded_periods", func() uint64 { return h.Folds.FoldedPeriods })
	r.Counter(d+"fold_folded_iters", func() uint64 { return h.Folds.FoldedIters })
	r.Counter(d+"fold_scalar_iters", func() uint64 { return h.Folds.ScalarIters })
	r.Counter(d+"fold_fallback_ineligible", func() uint64 { return h.Folds.FallbackIneligible })
	r.Counter(d+"fold_fallback_short", func() uint64 { return h.Folds.FallbackShort })
	r.Counter(d+"fold_fallback_wrap", func() uint64 { return h.Folds.FallbackWrap })
	r.Counter(d+"fold_fallback_unverified", func() uint64 { return h.Folds.FallbackUnverified })
	r.Counter(d+"fold_fallback_guard", func() uint64 { return h.Folds.FallbackGuard })
	h.L1I.Observe(r, prefix+".l1i")
	h.L1D.Observe(r, prefix+".l1d")
	h.L2.Observe(r, prefix+".l2")
	h.Bus.Observe(r, prefix+".bus")
	h.DRAM.Observe(r, prefix+".dram")
}

// memoryTime is the cost of one line (or word) access that reaches DRAM.
func (h *Hierarchy) memoryTime(addr, bytes uint64) sim.Duration {
	return h.DRAM.AccessTime(addr) + h.Bus.TransferTime(bytes)
}

// lineFill charges a fill of one line at the given level's line size.
func (h *Hierarchy) lineFill(addr uint64, lineBytes uint64) sim.Duration {
	return h.memoryTime(addr, lineBytes)
}

// Access performs an access of size bytes at addr and returns its latency.
// Accesses spanning multiple cache lines are charged per line.
func (h *Hierarchy) Access(addr uint64, size uint64, kind AccessKind) sim.Duration {
	return h.AccessRange(addr, size, kind)
}

// AccessRange charges an access of size bytes at addr in one pass and
// returns its latency. It is the canonical access entry point: timing,
// statistics, and cache state are those of the per-line walk, but each
// resident line is resolved through the L1's MRU fast path without
// entering the full L1→L2→memory chain.
func (h *Hierarchy) AccessRange(addr uint64, size uint64, kind AccessKind) sim.Duration {
	if size == 0 {
		return 0
	}
	switch kind {
	case UncachedRead, UncachedWrite:
		h.UncachedAccesses++
		// An uncached access pays the full DRAM latency plus bus time for
		// the bytes moved. Writes are posted but still occupy the bus; the
		// simulated processor does not continue past them (conservative).
		t := h.memoryTime(addr, size)
		h.uncachedHist.Observe(t)
		if h.tracer != nil {
			h.tracer.Span(obs.TIDMem, "mem", "uncached", h.now(), t)
		}
		return t
	}

	l1 := h.L1D
	if kind == Fetch {
		l1 = h.L1I
	}
	write := kind == Write

	line := l1.LineBytes()
	first := addr &^ (line - 1)
	last := (addr + size - 1) &^ (line - 1)
	if first == last && !h.Reference {
		// Single-line access — the overwhelmingly common shape.
		if l1.AccessFast(first, write) {
			return h.cfg.L1HitTime
		}
		return h.accessLine(l1, first, write)
	}
	// Count lines from the in-line offset rather than comparing line
	// addresses: an access that ends in the top line of the address space
	// would otherwise wrap the loop variable past `last` and never stop.
	nl := ((addr & (line - 1)) + size + line - 1) / line
	var total sim.Duration
	for a := first; nl > 0; nl, a = nl-1, a+line {
		if !h.Reference && l1.AccessFast(a, write) {
			total += h.cfg.L1HitTime
			continue
		}
		total += h.accessLine(l1, a, write)
	}
	return total
}

// AccessElems charges n consecutive elemBytes-wide accesses starting at
// addr and returns their summed latency. It is exactly equivalent — in
// timing, statistics, and cache state — to n sequential Access calls:
// within one cache line, every access after the first is a guaranteed hit
// (nothing can evict the line in between), so the batch charges one real
// line access plus k−1 RepeatHit hits per line instead of walking the
// hierarchy k times.
func (h *Hierarchy) AccessElems(addr, elemBytes, n uint64, kind AccessKind) sim.Duration {
	if n == 0 || elemBytes == 0 {
		return 0
	}
	switch kind {
	case UncachedRead, UncachedWrite:
		h.UncachedAccesses += n
		var total sim.Duration
		for i := uint64(0); i < n; i++ {
			// Per-element histogram records keep the batch equivalent to n
			// scalar AccessRange calls.
			t := h.memoryTime(addr+i*elemBytes, elemBytes)
			h.uncachedHist.Observe(t)
			total += t
		}
		if h.tracer != nil {
			h.tracer.SpanArg(obs.TIDMem, "mem", "uncached", h.now(), total, int64(n))
		}
		return total
	}

	l1 := h.L1D
	if kind == Fetch {
		l1 = h.L1I
	}
	write := kind == Write
	line := l1.LineBytes()
	// The batch is only safe when no element straddles a line; otherwise
	// (and in Reference mode) fall back to the per-element loop.
	if h.Reference || line%elemBytes != 0 || addr%elemBytes != 0 {
		var total sim.Duration
		for i := uint64(0); i < n; i++ {
			total += h.AccessRange(addr+i*elemBytes, elemBytes, kind)
		}
		return total
	}

	// Advance by an element counter, not an end-address comparison, so a
	// batch whose addresses wrap past the top of the address space still
	// terminates and matches the per-element reference loop.
	var total sim.Duration
	for i := uint64(0); i < n; {
		a := addr + i*elemBytes
		k := min((line-(a&(line-1)))/elemBytes, n-i)
		if l1.AccessFast(a, write) {
			total += h.cfg.L1HitTime
		} else {
			total += h.accessLine(l1, a, write)
		}
		if k > 1 {
			l1.RepeatHit(a, k-1, write)
			total += sim.Duration(k-1) * h.cfg.L1HitTime
		}
		i += k
	}
	return total
}

// accessLine charges one line access through L1 -> L2 -> memory.
func (h *Hierarchy) accessLine(l1 *cache.Cache, addr uint64, write bool) sim.Duration {
	t := h.cfg.L1HitTime
	r1 := l1.Access(addr, write)
	if r1.Hit {
		return t
	}
	// L1 miss: the fill walks the lower levels. Recording the fill here —
	// after the hit return — keeps the histogram identical between the fast
	// and reference pipelines: both reach this point for exactly the misses.
	t = h.fillLine(addr, t, r1)
	h.fillHist.Observe(t)
	if h.tracer != nil {
		name := "fill.l1d"
		if l1 == h.L1I {
			name = "fill.l1i"
		}
		h.tracer.Span(obs.TIDMem, "mem", name, h.now(), t)
	}
	return t
}

// fillLine continues an L1 miss through L2 and memory, returning the total
// access latency including the already-charged L1 probe time t.
func (h *Hierarchy) fillLine(addr uint64, t sim.Duration, r1 cache.Result) sim.Duration {
	// The L1 victim writeback, if any, is absorbed by the L2 (both are
	// on-chip); it costs an L2 access.
	if r1.Writeback {
		t += h.cfg.L2HitTime
		r := h.L2.Access(r1.WritebackAddr, true)
		if r.Writeback {
			t += h.Bus.TransferTime(h.L2.LineBytes())
		}
	}
	t += h.cfg.L2HitTime
	r2 := h.L2.Access(addr, false)
	if r2.Hit {
		return t
	}
	// L2 miss: go to memory. A dirty L2 victim is written back over the bus.
	if r2.Writeback {
		t += h.Bus.TransferTime(h.L2.LineBytes())
	}
	t += h.lineFill(addr, h.L2.LineBytes())
	return t
}

// Invalidate drops any cached copies of [addr, addr+size) from the data-side
// caches. The Active-Page runtime calls this when an in-memory function has
// rewritten page data, so subsequent processor reads observe memory. It
// returns the number of lines dropped across levels.
func (h *Hierarchy) Invalidate(addr, size uint64) uint64 {
	return h.L1D.InvalidateRange(addr, size) + h.L2.InvalidateRange(addr, size)
}

// FlushData empties the data-side caches (used between experiment runs).
func (h *Hierarchy) FlushData() {
	h.L1D.Flush()
	h.L2.Flush()
}
