package core

import (
	"fmt"

	"activepages/internal/backend"
	"activepages/internal/mem"
	"activepages/internal/sim"
)

// PageContext is the view a Function gets of its page during Run. All
// offsets are page-relative; accesses are bounds-checked against the
// superpage. Reaching data outside the page goes through MediatedCopy, the
// processor-mediated inter-page reference mechanism of Section 3.
//
// Context accesses are functional — the charge for the work is the logic
// cycle count the function returns, not per-access timing.
type PageContext struct {
	sys  *System
	page *Page
	// Args are the activation arguments.
	Args []uint64
	// written is the bounding range of page bytes written, used for cache
	// invalidation when the activation is posted.
	written mem.Range
	// readyAt accumulates mediated-copy availability; functions fold it
	// into their Result.ReadyAt (or use the helper Finish).
	readyAt sim.Time
}

// Addr converts a page offset to an absolute address.
func (ctx *PageContext) Addr(off uint64) uint64 { return ctx.page.Base + off }

// LogicClock returns the page's logic clock, for functions that convert
// data volumes to cycle counts.
func (ctx *PageContext) LogicClock() sim.Clock { return ctx.sys.logicClock }

// check panics if [off, off+n) leaves the page; a function escaping its
// page without MediatedCopy is a programming error in the circuit.
func (ctx *PageContext) check(off, n uint64) {
	if off+n > ctx.sys.cfg.PageBytes || off+n < off {
		panic(fmt.Sprintf("core: page %d function access [%d, %d) outside %d-byte page",
			ctx.page.Index, off, off+n, ctx.sys.cfg.PageBytes))
	}
}

// noteWrite grows the invalidation bounding box.
func (ctx *PageContext) noteWrite(off, n uint64) {
	if n == 0 {
		return
	}
	w := mem.Range{Addr: ctx.Addr(off), Len: n}
	if ctx.written.Len == 0 {
		ctx.written = w
		return
	}
	start := min(ctx.written.Addr, w.Addr)
	end := max(ctx.written.End(), w.End())
	ctx.written = mem.Range{Addr: start, Len: end - start}
}

// Read copies page bytes at off into p.
func (ctx *PageContext) Read(off uint64, p []byte) {
	ctx.check(off, uint64(len(p)))
	ctx.sys.store.Read(ctx.Addr(off), p)
}

// Write copies p into the page at off.
func (ctx *PageContext) Write(off uint64, p []byte) {
	ctx.check(off, uint64(len(p)))
	ctx.sys.store.Write(ctx.Addr(off), p)
	ctx.noteWrite(off, uint64(len(p)))
}

// ReadU16 loads a 16-bit value at off.
func (ctx *PageContext) ReadU16(off uint64) uint16 {
	ctx.check(off, 2)
	return ctx.sys.store.ReadU16(ctx.Addr(off))
}

// WriteU16 stores a 16-bit value at off.
func (ctx *PageContext) WriteU16(off uint64, v uint16) {
	ctx.check(off, 2)
	ctx.sys.store.WriteU16(ctx.Addr(off), v)
	ctx.noteWrite(off, 2)
}

// ReadU32 loads a 32-bit value at off.
func (ctx *PageContext) ReadU32(off uint64) uint32 {
	ctx.check(off, 4)
	return ctx.sys.store.ReadU32(ctx.Addr(off))
}

// WriteU32 stores a 32-bit value at off.
func (ctx *PageContext) WriteU32(off uint64, v uint32) {
	ctx.check(off, 4)
	ctx.sys.store.WriteU32(ctx.Addr(off), v)
	ctx.noteWrite(off, 4)
}

// ReadU64 loads a 64-bit value at off.
func (ctx *PageContext) ReadU64(off uint64) uint64 {
	ctx.check(off, 8)
	return ctx.sys.store.ReadU64(ctx.Addr(off))
}

// WriteU64 stores a 64-bit value at off.
func (ctx *PageContext) WriteU64(off uint64, v uint64) {
	ctx.check(off, 8)
	ctx.sys.store.WriteU64(ctx.Addr(off), v)
	ctx.noteWrite(off, 8)
}

// Move shifts n bytes within the page from src to dst (overlap-safe) — the
// primitive behind the array insert/delete circuits.
func (ctx *PageContext) Move(dst, src, n uint64) {
	ctx.check(src, n)
	ctx.check(dst, n)
	ctx.sys.store.Move(ctx.Addr(dst), ctx.Addr(src), n)
	ctx.noteWrite(dst, n)
}

// Fill sets n bytes at off to b.
func (ctx *PageContext) Fill(off, n uint64, b byte) {
	ctx.check(off, n)
	ctx.sys.store.Fill(ctx.Addr(off), n, b)
	ctx.noteWrite(off, n)
}

// PageDone reports the completion time of another allocated page, for
// functions whose start depends on a sibling (wavefront computations).
func (ctx *PageContext) PageDone(idx uint64) sim.Time {
	if p, ok := ctx.sys.pages[idx]; ok {
		return p.doneAt
	}
	return 0
}

// MediatedCopy performs an inter-page memory reference: it copies n bytes
// from absolute address src (typically inside another Active Page) to page
// offset dstOff. Per Section 3, the reference blocks the page and is
// serviced by the processor: the copy becomes available only after the
// source page's pending computation completes plus the processor's
// interrupt-service time, which is billed to the processor's mediation
// account. The accumulated availability time is folded into the function's
// Result via Finish.
func (ctx *PageContext) MediatedCopy(dstOff uint64, src uint64, n uint64) {
	ctx.check(dstOff, n)
	available := ctx.sys.cpu.Now()
	if sp, ok := ctx.sys.PageAt(src); ok && sp != ctx.page {
		if sp.doneAt > available {
			available = sp.doneAt
		}
	}
	cost := ctx.sys.mediationCost(n)
	ctx.sys.pendingMediation += cost
	available += cost

	ctx.sys.store.Move(ctx.Addr(dstOff), src, n)
	ctx.noteWrite(dstOff, n)

	if available > ctx.readyAt {
		ctx.readyAt = available
	}
	ctx.sys.Stats.InterPageTransfers++
	ctx.sys.Stats.InterPageBytes += n
}

// DelayUntil imposes an explicit start lower bound (pipelined wavefront
// scheduling computed by the function).
func (ctx *PageContext) DelayUntil(t sim.Time) {
	if t > ctx.readyAt {
		ctx.readyAt = t
	}
}

// Finish packages a cycle count with any accumulated dependency time.
func (ctx *PageContext) Finish(logicCycles uint64) (Result, error) {
	return Result{LogicCycles: logicCycles, ReadyAt: ctx.readyAt}, nil
}

// FinishOps is Finish for bit-serial-ported functions: it additionally
// reports the activation's operation vector, which bit-serial backends
// price in row activations instead of the logic-cycle count.
func (ctx *PageContext) FinishOps(logicCycles uint64, ops backend.Ops) (Result, error) {
	return Result{LogicCycles: logicCycles, Ops: ops, ReadyAt: ctx.readyAt}, nil
}

// StreamedCopy models a pipelined sequence of inter-page references: the
// destination consumes the source range chunk by chunk as the producer
// generates it (the wavefront pattern of the dynamic-programming study),
// so the copy imposes no whole-page dependency. The processor is still
// billed one interrupt service per chunk; the caller expresses the
// pipeline's timing bound separately with DelayUntil.
func (ctx *PageContext) StreamedCopy(dstOff uint64, src uint64, n uint64, chunks int) {
	ctx.check(dstOff, n)
	if chunks < 1 {
		chunks = 1
	}
	// One interrupt covers the whole streamed border — the processor
	// batches the chunk requests (Section 3) — but every chunk still
	// crosses the bus twice.
	ctx.sys.pendingMediation += ctx.sys.cpu.Clock().Cycles(ctx.sys.cfg.InterruptInstructions)
	per := (n + uint64(chunks) - 1) / uint64(chunks)
	for done := uint64(0); done < n; done += per {
		c := min(n-done, per)
		ctx.sys.pendingMediation += ctx.sys.hier.Bus.TransferTime(c) * 2
		ctx.sys.Stats.InterPageTransfers++
		ctx.sys.Stats.InterPageBytes += c
	}
	ctx.sys.store.Move(ctx.Addr(dstOff), src, n)
	ctx.noteWrite(dstOff, n)
}

// ReadU8 loads one byte at off.
func (ctx *PageContext) ReadU8(off uint64) uint8 {
	ctx.check(off, 1)
	return ctx.sys.store.ByteAt(ctx.Addr(off))
}

// WriteU8 stores one byte at off.
func (ctx *PageContext) WriteU8(off uint64, v uint8) {
	ctx.check(off, 1)
	ctx.sys.store.SetByte(ctx.Addr(off), v)
	ctx.noteWrite(off, 1)
}

// The typed slice helpers are the bulk forms of the scalar accessors.
// Context accesses are functional (timing is the function's returned cycle
// count), so a bulk read/write is semantically identical to the matching
// element loop: one bounds check and one invalidation note cover the span.

// ReadU16Slice loads len(dst) consecutive 16-bit values starting at off.
func (ctx *PageContext) ReadU16Slice(off uint64, dst []uint16) {
	ctx.check(off, uint64(len(dst))*2)
	ctx.sys.store.ReadU16Slice(ctx.Addr(off), dst)
}

// WriteU16Slice stores src as consecutive 16-bit values starting at off.
func (ctx *PageContext) WriteU16Slice(off uint64, src []uint16) {
	n := uint64(len(src)) * 2
	ctx.check(off, n)
	ctx.sys.store.WriteU16Slice(ctx.Addr(off), src)
	ctx.noteWrite(off, n)
}

// ReadU32Slice loads len(dst) consecutive 32-bit values starting at off.
func (ctx *PageContext) ReadU32Slice(off uint64, dst []uint32) {
	ctx.check(off, uint64(len(dst))*4)
	ctx.sys.store.ReadU32Slice(ctx.Addr(off), dst)
}

// WriteU32Slice stores src as consecutive 32-bit values starting at off.
func (ctx *PageContext) WriteU32Slice(off uint64, src []uint32) {
	n := uint64(len(src)) * 4
	ctx.check(off, n)
	ctx.sys.store.WriteU32Slice(ctx.Addr(off), src)
	ctx.noteWrite(off, n)
}

// ReadU64Slice loads len(dst) consecutive 64-bit values starting at off.
func (ctx *PageContext) ReadU64Slice(off uint64, dst []uint64) {
	ctx.check(off, uint64(len(dst))*8)
	ctx.sys.store.ReadU64Slice(ctx.Addr(off), dst)
}

// WriteU64Slice stores src as consecutive 64-bit values starting at off.
func (ctx *PageContext) WriteU64Slice(off uint64, src []uint64) {
	n := uint64(len(src)) * 8
	ctx.check(off, n)
	ctx.sys.store.WriteU64Slice(ctx.Addr(off), src)
	ctx.noteWrite(off, n)
}

// MediationCost reports the processor time to service one inter-page copy
// of n bytes — wavefront functions fold it into their pipeline lag, since
// each border chunk is held up by its service interrupt.
func (ctx *PageContext) MediationCost(n uint64) sim.Duration {
	return ctx.sys.cpu.Clock().Cycles(ctx.sys.cfg.InterruptInstructions) +
		ctx.sys.hier.Bus.TransferTime(n)*2
}
