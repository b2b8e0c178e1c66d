// Stream folding: periodicity-detecting simulation of fixed-stride access
// streams.
//
// A fixed-stride stream against this hierarchy is eventually periodic in
// every observable: the caches, bus, and DRAM are deterministic, and once
// the per-iteration address delta has advanced the stream by a multiple of
// every component's alignment span — the L1D and L2 set spans and the DRAM
// subarray size — each further period replays the previous one translated
// by that delta. Set indices repeat with tags shifted by delta/span, DRAM
// subarray indices shift by delta/SubarrayBytes with row indices unchanged,
// and the bus is stateless. StreamRun simulates scalar-for-scalar until it
// can verify that steady state has been reached, then fast-forwards the
// remaining whole periods in closed form: statistics and histograms gain
// the period delta times the period count, cache tags and LRU stamps shift,
// DRAM open rows are replayed from the recorded period, and the returned
// latency grows by the period latency times the period count. Anything that
// fails verification within a bounded warm-up — or is disqualified up front
// (Reference mode, tracing, uncached kinds, zero stride, non-power-of-two
// set counts) — runs on the exact scalar path instead.
//
// Soundness rests on three verified conditions, spelled out in DESIGN.md §9:
//
//  1. Cache state at consecutive period boundaries must match under the tag
//     shift with every valid line in a stream-touched set participating
//     (cache.VerifyFoldShift) and untouched sets bit-identical. This is
//     both the periodicity witness and the guard against stationary lines
//     whose LRU rank would decay during a fast-forwarded period.
//  2. The DRAM access lists of enough consecutive periods must be exact
//     delta-translations of one another — enough to cover the deepest
//     cross-period open-row reuse in the pattern — and per-period
//     statistics, histogram, and latency deltas must repeat exactly.
//  3. Subarrays the fold enters for the first time must have pre-stream
//     open-row state that reproduces the recorded first-touch outcome; the
//     fold is capped at the first period where a stale open row would have
//     flipped a recorded row miss into a hit (or vice versa).
package memsys

import (
	"math/bits"

	"activepages/internal/bus"
	"activepages/internal/cache"
	"activepages/internal/dram"
	"activepages/internal/obs"
	"activepages/internal/sim"
)

// StreamAcc describes one access performed on every iteration of a stream:
// Count consecutive Size-byte accesses starting Off bytes from the
// iteration's base address. Count == 1 models a single (possibly
// multi-line) access like a block copy; Count > 1 models a typed slice
// access and is charged exactly like AccessElems.
//
// Stride, when nonzero, overrides the stream's stride for this entry:
// iteration i accesses base + i·Stride + Off instead of base + i·stride +
// Off, so one stream can carry loops whose operands advance at different
// rates (a byte-wide sequence read against halfword-wide table rows).
// Heterogeneous-stride streams never fold — the uniform tag-shift model
// needs one per-iteration delta — but they still run through the
// guaranteed-hit line-run batcher.
type StreamAcc struct {
	Off    int64
	Size   uint64
	Count  uint64
	Kind   AccessKind
	Stride int64
}

// stride returns the entry's effective stride given the stream's stride.
func (a *StreamAcc) stride(stream int64) int64 {
	if a.Stride != 0 {
		return a.Stride
	}
	return stream
}

// FoldStats counts the folding layer's decisions. Diagnostic only: the
// counters are registered in the snapshot's "diag." namespace (see
// Hierarchy.Observe), which the fast-vs-reference equivalence checks
// exclude — a folding run must count differently from a scalar one here
// while every simulated observable stays identical.
type FoldStats struct {
	Streams       uint64 // StreamRun + NestedStreamRun invocations
	NestedStreams uint64 // NestedStreamRun invocations (two-level patterns)
	Folded        uint64 // invocations that fast-forwarded at least one period
	FoldedPeriods uint64
	FoldedIters   uint64 // innermost iterations skipped by folding
	// ScalarIters counts innermost iterations simulated scalar outside a
	// fold attempt's warm-up: whole fallback streams plus whatever a fold
	// attempt leaves after it. The warm-up periods themselves are counted
	// in neither ScalarIters nor FoldedIters, so the folded share computed
	// from the two overstates coverage.
	ScalarIters uint64

	// Fallback classification: one increment per StreamRun or
	// NestedStreamRun invocation that could not fold, by the first
	// disqualifier hit.
	FallbackIneligible uint64 // Reference/tracing mode, zero or huge stride, per-entry stride in a flat stream, non-pow2 sets, uncacheable kind
	FallbackShort      uint64 // too few whole periods for warm-up plus verification
	FallbackWrap       uint64 // footprint could wrap the 2^64 address space
	FallbackUnverified uint64 // warm-up exhausted without verifying periodicity
	FallbackGuard      uint64 // verified, but the DRAM fresh-subarray guard (or a short remainder) left no whole period to skip
}

const (
	// foldMinPeriods: streams shorter than this many periods run scalar —
	// warm-up plus verification needs at least two periods and folding
	// fewer than the remainder is not worth the snapshots.
	foldMinPeriods = 4
	// foldMaxWarmup bounds the warm-up: if periodicity has not been
	// verified after this many scalar periods, the stream runs scalar.
	foldMaxWarmup = 12
	// foldMaxBackDepth bounds how many periods back a pattern's open-row
	// reuse may be verified against recorded history. Deeper reuse (only
	// possible when distinct stream regions are separated by an exact
	// multiple of the period delta) would need more warm-up periods than
	// foldMaxWarmup allows, so it is instead guarded analytically: the
	// delta is a multiple of the subarray size, so every translated access
	// keeps its within-subarray offset, and the open row a folded period
	// leaves for a later one is a per-pattern constant (see classify and
	// foldGuardDRAM).
	foldMaxBackDepth = 3
	// foldMaxBackWork caps the subarray back-reference scan.
	foldMaxBackWork = 1 << 16
)

// dramAcc is one recorded DRAM access.
type dramAcc struct {
	addr uint64
	hit  bool
}

// foldFirst is the first recorded DRAM access to one subarray within a
// period. fresh marks subarrays no other period ever touches, whose
// pre-stream state must be guarded per folded period. depth > 0 marks a
// back-reference too deep to verify against recorded history
// (depth > foldMaxBackDepth): folded period m reads state left by period
// m-depth, so for m <= depth the pre-fold state is guarded like fresh,
// and for m > depth the source is itself a folded period whose left-open
// row is the m-invariant steadyHit outcome.
type foldFirst struct {
	sub       int64
	row       int64
	hit       bool
	fresh     bool
	depth     int64
	steadyHit bool
}

// foldBoundary is the observable-counter checkpoint taken at each period
// boundary. It is a comparable value so per-period deltas can be checked
// for equality directly.
type foldBoundary struct {
	bus   bus.Stats
	dram  dram.Stats
	fill  obs.HistCheckpoint
	busH  obs.HistCheckpoint
	dramH obs.HistCheckpoint
	lat   sim.Duration
}

func (b foldBoundary) delta(prev foldBoundary) foldBoundary {
	return foldBoundary{
		bus:   b.bus.StatsDelta(prev.bus),
		dram:  b.dram.StatsDelta(prev.dram),
		fill:  b.fill.Sub(prev.fill),
		busH:  b.busH.Sub(prev.busH),
		dramH: b.dramH.Sub(prev.dramH),
		lat:   b.lat - prev.lat,
	}
}

// foldScratch holds every buffer the folding layer reuses across
// StreamRun calls, so the folded path runs allocation-free once warm.
type foldScratch struct {
	snaps [2]struct {
		l1, l2 cache.FoldSnapshot
	}
	cur      int // index of the snapshot taken at the latest boundary
	bounds   [3]foldBoundary
	nBounds  int
	touched1 []uint64 // L1D touched-set bitmap
	touched2 []uint64 // L2 touched-set bitmap
	// recs is the flat DRAM access record for all warm-up periods;
	// periodStart[k] is where period k's records begin.
	recs        []dramAcc
	periodStart []int
	subs        map[int64]struct{}
	seen        map[int64]struct{}
	firsts      []foldFirst
	lastPerSub  []uint64 // address of the last DRAM access per subarray
	kmax        int      // deepest cross-period subarray back-reference
	bail        bool     // pattern disqualified: stop warming, run scalar
	hook        func(addr uint64, rowHit bool, d sim.Duration)
}

func (h *Hierarchy) foldScratch() *foldScratch {
	if h.fold == nil {
		fs := &foldScratch{
			subs: make(map[int64]struct{}),
			seen: make(map[int64]struct{}),
		}
		fs.hook = func(addr uint64, rowHit bool, _ sim.Duration) {
			fs.recs = append(fs.recs, dramAcc{addr, rowHit})
		}
		h.fold = fs
	}
	return h.fold
}

func (fs *foldScratch) reset() {
	fs.nBounds = 0
	fs.recs = fs.recs[:0]
	fs.periodStart = append(fs.periodStart[:0], 0)
	fs.firsts = fs.firsts[:0]
	fs.lastPerSub = fs.lastPerSub[:0]
	fs.kmax = 0
	fs.bail = false
}

// list returns period j's recorded DRAM accesses.
func (fs *foldScratch) list(j int) []dramAcc {
	return fs.recs[fs.periodStart[j]:fs.periodStart[j+1]]
}

func (fs *foldScratch) pushBoundary(b foldBoundary) {
	if fs.nBounds < len(fs.bounds) {
		fs.bounds[fs.nBounds] = b
		fs.nBounds++
		return
	}
	fs.bounds[0], fs.bounds[1], fs.bounds[2] = fs.bounds[1], fs.bounds[2], b
}

// StreamRun simulates n iterations of a fixed-stride access pattern:
// iteration i performs every entry of accs at base + i·stride + Off. It is
// exactly equivalent — in returned latency, statistics, histograms, and
// final state — to the scalar loop that calls AccessRange (Count == 1) or
// AccessElems (Count > 1) for each entry in order.
//
// The fold sees a flat stream as a nest whose macro-iteration is one
// iteration of the pattern: accs are the nest's tail, with no inner loop.
// Whatever the fold leaves unsimulated runs on the batched scalar path.
func (h *Hierarchy) StreamRun(base uint64, stride int64, n uint64, accs []StreamAcc) sim.Duration {
	h.Folds.Streams++
	if n == 0 || len(accs) == 0 {
		return 0
	}
	// A per-entry stride override breaks the single per-iteration address
	// delta the uniform tag-shift fold is built on.
	uniform := true
	for k := range accs {
		uniform = uniform && accs[k].stride(stride) == stride
	}
	s := streamNest{base: base, stride: stride, n: n, tail: accs}
	total, it := h.foldStream(&s, uniform)
	return total + h.streamScalar(base, stride, it, n, accs)
}

// NestedStreamRun simulates a two-level loop nest of outerN macro-
// iterations. Macro-iteration i, based at base + i·outerStride, first runs
// innerN iterations of the inner pattern — entry k of accs at
// base + i·outerStride + j·innerStride + Off for inner index j, with
// per-entry Stride overrides honored — and then performs every entry of
// tail once at base + i·outerStride + Off. It is exactly equivalent — in
// returned latency, statistics, histograms, and final state — to the loop
// that issues each macro-iteration's inner stream scalar followed by its
// tail accesses, but the periodicity detector operates at macro-iteration
// granularity: the inner stream is treated as the body of one outer
// iteration, and once consecutive outer periods verify as exact
// delta-translations (same conditions as StreamRun, with the outer period
// delta), whole outer periods — inner iterations, tails and all —
// fast-forward in closed form.
//
// This is the shape of row sweeps whose inner trip count is far below the
// inner fold period (a stride-2 filter row is thousands of iterations
// against a 32 Ki-iteration period) but whose rows repeat under a uniform
// row-pitch translation: flat folding can never engage, outer folding can.
// Inner iterations always run through the guaranteed-hit batcher, never
// through a nested fold — the fold scratch state and DRAM recording hook
// are single-level.
//
// Patterns with a stationary per-macro-iteration region (an operand re-read
// every row at a fixed address) fail outer verification — the stationary
// lines cannot participate in the uniform tag shift — and fall back to the
// per-macro-iteration batched path, still byte-identical to scalar.
func (h *Hierarchy) NestedStreamRun(base uint64, outerStride int64, outerN uint64,
	innerStride int64, innerN uint64, accs, tail []StreamAcc) sim.Duration {
	h.Folds.Streams++
	h.Folds.NestedStreams++
	if len(accs) == 0 || innerN == 0 {
		// An empty inner loop performs none of its entries.
		accs, innerN = nil, 0
	}
	if outerN == 0 || (innerN == 0 && len(tail) == 0) {
		return 0
	}
	s := streamNest{base, outerStride, outerN, innerStride, innerN, accs, tail}
	total, it := h.foldStream(&s, true)
	for ; it < outerN; it++ {
		total += h.nestIter(&s, it)
	}
	return total
}

// streamNest is the fold's unit of work: n macro-iterations, the i-th based
// at base + i·stride, each running innerN iterations of accs at innerStride
// and then every entry of tail once. A flat stream is the nest with no
// inner loop whose tail is its pattern.
type streamNest struct {
	base        uint64
	stride      int64
	n           uint64
	innerStride int64
	innerN      uint64
	accs, tail  []StreamAcc
}

// weight is how many innermost iterations one macro-iteration stands for
// in the FoldedIters and ScalarIters diagnostics.
func (s *streamNest) weight() uint64 { return max(s.innerN, 1) }

// span returns the byte range [lo, hi), relative to a macro-iteration's
// base, that entry k covers within one macro-iteration — the whole sweep
// of an inner entry, the single access of a tail entry (entries index accs
// first, then tail) — and ok=false when that range is too large to fold.
func (s *streamNest) span(k int) (lo, hi int64, ok bool) {
	var a *StreamAcc
	stride, n := int64(0), uint64(1)
	if k < len(s.accs) {
		a = &s.accs[k]
		stride, n = a.stride(s.innerStride), s.innerN
	} else {
		a = &s.tail[k-len(s.accs)]
	}
	if a.Size > 1<<32 || a.Count > 1<<32 || n > 1<<32 {
		return 0, 0, false
	}
	over, sweep := bits.Mul64(magnitude(stride), n-1)
	if over != 0 || sweep > 1<<40 {
		return 0, 0, false
	}
	lo, hi = a.Off, a.Off+int64(a.Size*max(a.Count, 1))
	if stride < 0 {
		lo -= int64(sweep)
	} else {
		hi += int64(sweep)
	}
	return lo, hi, true
}

// nestIter simulates macro-iteration i: the inner stream on the batched
// scalar path, then the tail as one iteration of its pattern based there.
func (h *Hierarchy) nestIter(s *streamNest, i uint64) sim.Duration {
	b := s.base + uint64(s.stride)*i
	var t sim.Duration
	if s.innerN > 0 {
		t = h.streamScalar(b, s.innerStride, 0, s.innerN, s.accs)
	}
	return t + h.streamIter(b, 0, 0, s.tail)
}

// foldStream is the fold's classify-then-run step, shared by flat and
// nested streams. It files s under the first disqualifier it hits —
// eligible=false marks a pattern its caller has already ruled out — and
// otherwise warms up, verifies and fast-forwards it. It returns the latency
// simulated and the first macro-iteration left for the caller to run
// scalar (0 when s never qualified), counting the outcome in Folds.
func (h *Hierarchy) foldStream(s *streamNest, eligible bool) (sim.Duration, uint64) {
	P, delta, ok := h.foldPeriod(s.stride)
	switch {
	case !eligible || !h.foldEligible(s) || !ok:
		h.Folds.FallbackIneligible++
	case s.n/P < foldMinPeriods:
		h.Folds.FallbackShort++
	case !foldNoWrap(s):
		h.Folds.FallbackWrap++
	default:
		fs := h.foldScratch()
		fs.reset()
		h.foldMarkTouched(fs, s, P)
		total, it := h.runFold(fs, s, P, delta)
		h.Folds.ScalarIters += (s.n - it) * s.weight()
		return total, it
	}
	h.Folds.ScalarIters += s.n * s.weight()
	return 0, 0
}

// streamScalar simulates iterations [from, to) on the exact scalar path.
func (h *Hierarchy) streamScalar(base uint64, stride int64, from, to uint64, accs []StreamAcc) sim.Duration {
	if !h.Reference && from < to {
		if t, done := h.streamScalarBatched(base, stride, from, to, accs); done {
			return t
		}
	}
	var total sim.Duration
	for i := from; i < to; i++ {
		total += h.streamIter(base, stride, i, accs)
	}
	return total
}

// streamBatchMax bounds the stack arrays of the line-run batcher.
const streamBatchMax = 8

// streamScalarBatched simulates [from, to) with guaranteed-hit line runs
// batched: when an iteration's whole footprint lies inside cache lines
// that the next k iterations keep re-touching (no access crosses a line
// boundary for k more iterations), those k iterations are k rounds of L1
// hits — nothing can evict the lines in between, because no set holds
// more distinct footprint lines than it has ways, so after the first
// (real) iteration every footprint line is resident and only those lines
// are touched — and cache.StreamRepeat replays them in closed form,
// byte-identical to the scalar interleave. Returns done=false when the
// stream's shape disqualifies it up front (|stride| not smaller than a
// line, an access wider than a line, a non-cacheable kind), leaving the
// plain per-iteration loop to run.
func (h *Hierarchy) streamScalarBatched(base uint64, stride int64, from, to uint64, accs []StreamAcc) (sim.Duration, bool) {
	l1 := h.L1D
	line := l1.LineBytes()
	if len(accs) == 0 || len(accs) > streamBatchMax {
		return 0, false
	}
	var width, cnt, mags, strd [streamBatchMax]uint64
	var wr, neg [streamBatchMax]bool
	for j := range accs {
		a := &accs[j]
		s := a.stride(stride)
		mag := magnitude(s)
		neg[j] = s < 0
		if mag == 0 || mag >= line {
			return 0, false
		}
		if (a.Kind != Read && a.Kind != Write) || a.Size == 0 || a.Size > line || a.Count > line {
			return 0, false
		}
		w := a.Size * max(a.Count, 1)
		if w > line {
			return 0, false
		}
		width[j] = w
		cnt[j] = max(a.Count, 1)
		wr[j] = a.Kind == Write
		mags[j] = mag
		strd[j] = uint64(s)
	}
	hitCost := h.cfg.L1HitTime
	assoc := h.cfg.L1D.Assoc

	var addrs [streamBatchMax]uint64
	var total sim.Duration
	for i := from; i < to; {
		// Window length: iterations after i for which no access leaves the
		// line it currently occupies, bounded by the nearest line boundary
		// in each entry's stride direction; zero if any footprint straddles
		// a boundary right now or two accesses share a set but not a line.
		k := to - i - 1
		for j := range accs {
			aj := base + strd[j]*i + uint64(accs[j].Off)
			off := aj & (line - 1)
			if off+width[j] > line {
				k = 0
				break
			}
			var kj uint64
			if neg[j] {
				kj = off / mags[j]
			} else {
				kj = (line - off - width[j]) / mags[j]
			}
			k = min(k, kj)
			addrs[j] = aj
		}
		if k > 0 && len(accs) > 1 {
			// No set may hold more distinct footprint lines than it has
			// ways: the m-th distinct line inserted into a set during the
			// first iteration always victimizes a non-footprint line (the
			// m-1 already-touched lines carry newer LRU stamps), so with
			// at most assoc lines per set the whole footprint is resident
			// when the hit rounds begin.
			var uline [streamBatchMax]uint64
			nu := 0
		dedupe:
			for j := range accs {
				lj := addrs[j] &^ (line - 1)
				for t := 0; t < nu; t++ {
					if uline[t] == lj {
						continue dedupe
					}
				}
				uline[nu] = lj
				nu++
			}
			for t := 1; t < nu && k > 0; t++ {
				inSet := 1
				st := l1.SetIndex(uline[t])
				for t2 := 0; t2 < t; t2++ {
					if l1.SetIndex(uline[t2]) == st {
						inSet++
					}
				}
				if inSet > assoc {
					k = 0
				}
			}
		}
		total += h.streamIter(base, stride, i, accs)
		if k > 0 {
			hits := l1.StreamRepeat(addrs[:len(accs)], cnt[:len(accs)], wr[:len(accs)], k)
			total += sim.Duration(hits) * hitCost
		}
		i += k + 1
	}
	return total, true
}

// streamIter simulates one iteration.
func (h *Hierarchy) streamIter(base uint64, stride int64, i uint64, accs []StreamAcc) sim.Duration {
	var t sim.Duration
	for k := range accs {
		a := &accs[k]
		addr := base + uint64(a.stride(stride))*i + uint64(a.Off)
		if a.Count > 1 {
			t += h.AccessElems(addr, a.Size, a.Count, a.Kind)
		} else {
			t += h.AccessRange(addr, a.Size, a.Kind)
		}
	}
	return t
}

// foldEligible applies the up-front disqualifiers. Per-entry inner stride
// overrides are legal: whatever rate an entry advances at inside a
// macro-iteration, its addresses still translate uniformly by s.stride from
// one macro-iteration to the next, which is all the fold needs.
func (h *Hierarchy) foldEligible(s *streamNest) bool {
	if h.Reference || h.tracer != nil || s.stride == 0 {
		return false
	}
	if !h.L1D.SetsPow2() || !h.L2.SetsPow2() {
		return false
	}
	for _, part := range [2][]StreamAcc{s.accs, s.tail} {
		for i := range part {
			if a := &part[i]; (a.Kind != Read && a.Kind != Write) || a.Size == 0 {
				return false
			}
		}
	}
	return true
}

// foldPeriod returns the iteration period P and its address delta = P·stride:
// the smallest P whose delta is a multiple of every component's alignment
// span, so each period lands on the same cache sets (tags shifted) and
// shifts DRAM subarrays uniformly.
func (h *Hierarchy) foldPeriod(stride int64) (P uint64, delta int64, ok bool) {
	span1, span2, sub := h.L1D.SetSpan(), h.L2.SetSpan(), h.DRAM.SubarrayBytes()
	L := max(span1, span2, sub)
	// All three are powers of two (validated configs + SetsPow2), so the
	// max is their lcm; the check guards hypothetical non-pow2 configs.
	if L%span1 != 0 || L%span2 != 0 || L%sub != 0 {
		return 0, 0, false
	}
	mag := magnitude(stride)
	if mag > 1<<40 {
		return 0, 0, false
	}
	g := uint64(1) << min(bits.TrailingZeros64(L), bits.TrailingZeros64(mag))
	P = L / g
	return P, stride * int64(P), true
}

// magnitude returns |stride| in bytes.
func magnitude(stride int64) uint64 {
	if stride < 0 {
		return uint64(-stride)
	}
	return uint64(stride)
}

// foldNoWrap reports whether the nest's full address footprint — every
// entry's span in every macro-iteration — stays inside [0, 2^64) without
// wrapping around. Cache tags and DRAM subarray indices are quotients of
// the address, and division does not commute with 64-bit wraparound: a
// descending stream crossing zero jumps from tag 0 to the maximum tag, not
// to tag-1, so the true per-period state shift is discontinuous at the
// boundary and the uniform tag-shift fold cannot represent it. Wrapping
// streams run scalar.
func foldNoWrap(s *streamNest) bool {
	var extLo, extHi int64 // one macro-iteration's footprint, relative to its base
	for k := range len(s.accs) + len(s.tail) {
		lo, hi, ok := s.span(k)
		if !ok {
			return false
		}
		extLo, extHi = min(extLo, lo), max(extHi, hi)
	}
	if extLo < -(1<<40) || extHi > 1<<40 {
		return false
	}
	over, walk := bits.Mul64(magnitude(s.stride), s.n-1)
	if over != 0 || walk > 1<<62 {
		return false
	}
	lo, hiAddr := s.base, s.base
	if s.stride < 0 {
		if walk > s.base {
			return false
		}
		lo = s.base - walk
	} else {
		hiAddr = s.base + walk
		if hiAddr < s.base {
			return false
		}
	}
	if extLo < 0 && uint64(-extLo) > lo {
		return false
	}
	// Keep the whole footprint well below the top of the address space:
	// extents are bounded by 2^40 above, so this leaves no way for any
	// touched byte — or a line walk over it — to reach the 2^64 boundary.
	return hiAddr <= 1<<63
}

// foldMarkTouched computes the per-cache touched-set bitmaps for one period
// of the nest by address arithmetic alone — no model calls. The bitmaps are
// period-invariant: the period delta is a multiple of both set spans. Each
// inner entry's sweep is marked as a contiguous line range — exact for
// dense sweeps (|stride| no larger than the footprint width, the shapes
// applications issue), a safe over-approximation when the sweep has gaps:
// over-marking can only make verification stricter, never unsound.
func (h *Hierarchy) foldMarkTouched(fs *foldScratch, s *streamNest, P uint64) {
	fs.touched1 = resetBitmap(fs.touched1, h.L1D.NumSets())
	fs.touched2 = resetBitmap(fs.touched2, h.L2.NumSets())
	for k := range len(s.accs) + len(s.tail) {
		lo, hi, _ := s.span(k)
		for i := uint64(0); i < P; i++ {
			h.markTouchedRange(fs, s.base+uint64(s.stride)*i+uint64(lo), uint64(hi-lo))
		}
	}
}

// markTouchedRange marks every set either cache maps any line of
// [start, start+size) to.
func (h *Hierarchy) markTouchedRange(fs *foldScratch, start, size uint64) {
	line1, line2 := h.L1D.LineBytes(), h.L2.LineBytes()
	for x := start &^ (line1 - 1); x <= (start+size-1)&^(line1-1); x += line1 {
		s := h.L1D.SetIndex(x)
		fs.touched1[s>>6] |= 1 << (s & 63)
	}
	for x := start &^ (line2 - 1); x <= (start+size-1)&^(line2-1); x += line2 {
		s2 := h.L2.SetIndex(x)
		fs.touched2[s2>>6] |= 1 << (s2 & 63)
	}
}

func resetBitmap(b []uint64, nsets uint64) []uint64 {
	n := int((nsets + 63) / 64)
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func (h *Hierarchy) foldBoundaryNow(lat sim.Duration) foldBoundary {
	return foldBoundary{
		bus:   h.Bus.Stats,
		dram:  h.DRAM.Stats,
		fill:  h.fillHist.Checkpoint(),
		busH:  h.Bus.HistCheckpoint(),
		dramH: h.DRAM.HistCheckpoint(),
		lat:   lat,
	}
}

func (h *Hierarchy) foldSnapshot(fs *foldScratch) {
	fs.cur ^= 1
	h.L1D.SnapshotInto(&fs.snaps[fs.cur].l1)
	h.L2.SnapshotInto(&fs.snaps[fs.cur].l2)
}

// runFold is the warm-up / verify / fast-forward core. It simulates whole
// periods of P macro-iterations of s until periodicity verifies at a
// boundary, fast-forwards as many whole periods as the DRAM fresh-subarray
// guard allows, and returns the accumulated latency plus the first
// macro-iteration left unsimulated (the caller runs the remainder its own
// way). Touched-set bitmaps must be marked and fs reset before the call.
func (h *Hierarchy) runFold(fs *foldScratch, s *streamNest, P uint64, delta int64) (sim.Duration, uint64) {
	n := s.n
	tag1 := delta / int64(h.L1D.SetSpan())
	tag2 := delta / int64(h.L2.SetSpan())

	h.DRAM.OnAccess = fs.hook
	var total sim.Duration
	var it uint64
	fs.pushBoundary(h.foldBoundaryNow(total))
	h.foldSnapshot(fs)
	verified := false
	for periods := 0; ; periods++ {
		if periods >= foldMaxWarmup || fs.bail || n-it < 2*P {
			break
		}
		for end := it + P; it < end; it++ {
			total += h.nestIter(s, it)
		}
		fs.periodStart = append(fs.periodStart, len(fs.recs))
		fs.pushBoundary(h.foldBoundaryNow(total))
		h.foldSnapshot(fs)
		if periods >= 1 && h.foldVerify(fs, delta, tag1, tag2) {
			verified = true
			break
		}
	}
	h.DRAM.OnAccess = nil

	if verified {
		M := (n - it) / P
		M = h.foldGuardDRAM(fs, delta, M)
		if M > 0 {
			h.foldApply(fs, delta, tag1, tag2, M)
			total += fs.bounds[2].delta(fs.bounds[1]).lat * sim.Duration(M)
			it += M * P
			h.Folds.Folded++
			h.Folds.FoldedPeriods += M
			h.Folds.FoldedIters += M * P * s.weight()
		} else {
			h.Folds.FallbackGuard++
		}
	} else {
		h.Folds.FallbackUnverified++
	}
	return total, it
}

// foldVerify checks every periodicity condition at the latest boundary.
func (h *Hierarchy) foldVerify(fs *foldScratch, delta int64, tag1, tag2 int64) bool {
	if fs.nBounds < 3 {
		return false
	}
	if fs.bounds[1].delta(fs.bounds[0]) != fs.bounds[2].delta(fs.bounds[1]) {
		return false
	}
	prev, cur := &fs.snaps[fs.cur^1], &fs.snaps[fs.cur]
	if !h.L1D.VerifyFoldShift(&prev.l1, fs.touched1, tag1, cur.l1.Clock()-prev.l1.Clock()) {
		return false
	}
	if !h.L2.VerifyFoldShift(&prev.l2, fs.touched2, tag2, cur.l2.Clock()-prev.l2.Clock()) {
		return false
	}
	return h.foldVerifyDRAM(fs, delta)
}

// foldVerifyDRAM classifies the recorded period's subarray reuse and
// requires enough consecutive recorded periods to be exact
// delta-translations to cover the deepest back-reference.
func (h *Hierarchy) foldVerifyDRAM(fs *foldScratch, delta int64) bool {
	np := len(fs.periodStart) - 1
	last := fs.list(np - 1)
	if len(last) == 0 {
		// DRAM untouched: nothing to classify, nothing to fix up.
		fs.firsts = fs.firsts[:0]
		fs.lastPerSub = fs.lastPerSub[:0]
		fs.kmax = 0
		return true
	}
	if !fs.classify(h.DRAM, last, delta) {
		return false
	}
	if np < fs.kmax+2 {
		return false // keep warming: history too shallow for the reuse depth
	}
	pairs := max(fs.kmax, 1)
	for j := np - 1 - pairs; j < np-1; j++ {
		a, b := fs.list(j), fs.list(j+1)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if b[i].addr != a[i].addr+uint64(delta) || b[i].hit != a[i].hit {
				return false
			}
		}
	}
	return true
}

// classify builds, from one period's DRAM access list: the set of touched
// subarrays, the first access per subarray (with its freshness class), the
// last access address per subarray, and the deepest back-reference kmax.
func (fs *foldScratch) classify(d *dram.Device, last []dramAcc, delta int64) bool {
	dsub := delta / int64(d.SubarrayBytes())
	clear(fs.subs)
	clear(fs.seen)
	fs.firsts = fs.firsts[:0]
	fs.lastPerSub = fs.lastPerSub[:0]
	minS, maxS := int64(1)<<62, int64(-1)<<62
	for _, r := range last {
		sub := int64(d.Subarray(r.addr))
		if _, ok := fs.subs[sub]; !ok {
			fs.subs[sub] = struct{}{}
			fs.firsts = append(fs.firsts, foldFirst{sub: sub, row: d.Row(r.addr), hit: r.hit})
			minS = min(minS, sub)
			maxS = max(maxS, sub)
		}
	}
	for i := len(last) - 1; i >= 0; i-- {
		sub := int64(d.Subarray(last[i].addr))
		if _, ok := fs.seen[sub]; !ok {
			fs.seen[sub] = struct{}{}
			fs.lastPerSub = append(fs.lastPerSub, last[i].addr)
		}
	}
	adsub := dsub
	if adsub < 0 {
		adsub = -adsub
	}
	// delta is a nonzero multiple of SubarrayBytes, so adsub >= 1.
	kRange := (maxS - minS) / adsub
	if (kRange+1)*int64(len(fs.firsts)) > foldMaxBackWork {
		fs.bail = true
		return false
	}
	fs.kmax = 0
	for i := range fs.firsts {
		f := &fs.firsts[i]
		// Period p-k's footprint is this period's shifted back by k·dsub,
		// so f.sub was touched k periods ago iff f.sub+k·dsub is in this
		// period's footprint.
		depth := 0
		for k := int64(1); k <= kRange; k++ {
			if _, ok := fs.subs[f.sub+k*dsub]; ok {
				depth = int(k)
				break
			}
		}
		switch {
		case depth == 0:
			f.fresh = true
		case depth > foldMaxBackDepth:
			// Too deep to verify against recorded history — the source
			// period predates any affordable warm-up. Resolve it
			// analytically instead: the source leaves open the row of its
			// last access to the referenced subarray, and because delta is
			// a multiple of the subarray size, that row's within-subarray
			// index is the same in every period.
			f.depth = int64(depth)
			src, ok := fs.lastIn(d, f.sub+int64(depth)*dsub)
			if !ok {
				// The footprint match came from fs.subs, whose members all
				// have a lastPerSub entry; missing means inconsistent
				// bookkeeping, so refuse to fold.
				fs.bail = true
				return false
			}
			f.steadyHit = d.Row(src) == f.row
		case depth > fs.kmax:
			fs.kmax = depth
		}
	}
	return true
}

// lastIn returns the recorded last-access address in subarray sub.
func (fs *foldScratch) lastIn(d *dram.Device, sub int64) (uint64, bool) {
	for _, a := range fs.lastPerSub {
		if int64(d.Subarray(a)) == sub {
			return a, true
		}
	}
	return 0, false
}

// foldGuardDRAM caps the fold at the first period where a subarray's
// first-touch outcome would deviate from the recorded one: a fresh
// subarray's pre-stream open row must reproduce it for every folded
// period, a deep back-reference's pre-fold state must reproduce it while
// the source period predates the fold (m <= depth), and once the source
// is itself a folded period (m > depth) the analytic steady outcome must
// match.
func (h *Hierarchy) foldGuardDRAM(fs *foldScratch, delta int64, M uint64) uint64 {
	if h.DRAM.Config().AccessTime == 0 || len(fs.firsts) == 0 {
		return M
	}
	dsub := delta / int64(h.DRAM.SubarrayBytes())
	for m := uint64(1); m <= M; m++ {
		for i := range fs.firsts {
			f := &fs.firsts[i]
			switch {
			case f.fresh || f.depth > 0 && int64(m) <= f.depth:
				pre := h.DRAM.OpenRow(uint64(f.sub + int64(m)*dsub))
				if (pre == f.row) != f.hit {
					return m - 1
				}
			case f.depth > 0:
				if f.steadyHit != f.hit {
					return m - 1
				}
			}
		}
	}
	return M
}

// foldApply fast-forwards every component by M periods.
func (h *Hierarchy) foldApply(fs *foldScratch, delta int64, tag1, tag2 int64, M uint64) {
	prev, cur := &fs.snaps[fs.cur^1], &fs.snaps[fs.cur]
	h.L1D.ApplyFoldShift(fs.touched1, tag1, cur.l1.Clock()-prev.l1.Clock(), M)
	h.L1D.AddFoldStats(cur.l1.Stats().StatsDelta(prev.l1.Stats()), M)
	h.L2.ApplyFoldShift(fs.touched2, tag2, cur.l2.Clock()-prev.l2.Clock(), M)
	h.L2.AddFoldStats(cur.l2.Stats().StatsDelta(prev.l2.Stats()), M)
	d := fs.bounds[2].delta(fs.bounds[1])
	h.Bus.AddFoldStats(d.bus, M)
	h.Bus.AddHistDelta(d.busH, M)
	h.DRAM.AddFoldStats(d.dram, M)
	h.DRAM.AddHistDelta(d.dramH, M)
	h.fillHist.AddDelta(d.fill, M)
	if h.DRAM.Config().AccessTime != 0 && len(fs.lastPerSub) > 0 {
		// Replay the open rows the folded periods leave behind, oldest
		// period first so overlapping subarrays keep the newest row.
		for m := uint64(1); m <= M; m++ {
			off := uint64(delta) * m
			for _, a := range fs.lastPerSub {
				h.DRAM.SetOpenRow(h.DRAM.Subarray(a+off), h.DRAM.Row(a+off))
			}
		}
		h.DRAM.SetLast(fs.recs[len(fs.recs)-1].addr + uint64(delta)*M)
	}
}
