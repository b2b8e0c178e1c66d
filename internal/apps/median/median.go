// Package median implements the image median-filtering study (Section
// 5.1): a 3x3 median filter over a 16-bit grayscale image.
//
// Conventional partition: the processor slides the window over the image,
// finding each median with the minimal fixed comparison network.
//
// Active-Page partition: the image is divided into row blocks among pages,
// each block carrying one halo row above and below (exactly the paper's
// layout). Every page is programmed with a nine-value median circuit and
// filters its block in parallel; the processor only dispatches and waits.
//
// Two kernels are exported: Benchmark is "median-kernel" (the filter
// phase), and Total is "median-total", which also charges the processor-
// side layout transform that Figure 5 shows is the only cache-sensitive
// part of the RADram version.
package median

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/apps/layout"
	"activepages/internal/backend"
	"activepages/internal/circuits"
	"activepages/internal/core"
	"activepages/internal/logic"
	"activepages/internal/memsys"
	"activepages/internal/radram"
	"activepages/internal/simdram"
	"activepages/internal/workload"
)

const (
	seed = 42
	// medianCyclesPerPixel is the circuit's throughput: the sorting
	// network is pipelined, but the 32-bit memory port needs to stream
	// three new 16-bit pixels in and one out per step.
	medianCyclesPerPixel = 2
)

// width returns the image width in pixels: rows scale with the superpage
// so a page holds a useful row block, and the conventional filter's
// working set (three input rows plus the output row) tracks realistic
// image sizes — at the 512 KB reference page the window working set is
// what makes Figure 5's conventional curves climb below 64 KB of L1.
func width(m *radram.Machine) int {
	w := int(m.PageBytes()) / 32
	if w < 256 {
		w = 256
	}
	return w
}

// blockRows returns how many output rows one page processes: the page
// holds (rows+2) input rows (with halos) plus rows of output.
func blockRows(m *radram.Machine) int {
	usable := int(layout.UsableBytes(m))
	rowBytes := width(m) * 2
	// (rows+2)*rowBytes + rows*rowBytes <= usable
	rows := (usable - 2*rowBytes) / (2 * rowBytes)
	if rows < 1 {
		rows = 1
	}
	return rows
}

// Benchmark is the median-kernel study: the filtering phase only.
type Benchmark struct{}

// Name implements apps.Benchmark.
func (Benchmark) Name() string { return "median-kernel" }

// Partitioning implements apps.Benchmark.
func (Benchmark) Partitioning() apps.Partitioning { return apps.MemoryCentric }

// Description implements apps.Benchmark.
func (Benchmark) Description() string {
	return "processor does image I/O; pages compute medians of neighboring pixels"
}

// Run implements apps.Benchmark.
func (Benchmark) Run(m *radram.Machine, pages float64) error { return run(m, pages, false) }

// PortedBackends implements apps.Ported: the median circuit has a
// bit-serial port (the 19-stage min/max network as compare-and-swap row
// ops), so the kernel also runs on SIMDRAM.
func (Benchmark) PortedBackends() []string { return []string{"simdram"} }

// Total is the median-total study: layout transform plus filtering.
type Total struct{}

// Name implements apps.Benchmark.
func (Total) Name() string { return "median-total" }

// Partitioning implements apps.Benchmark.
func (Total) Partitioning() apps.Partitioning { return apps.MemoryCentric }

// Description implements apps.Benchmark.
func (Total) Description() string {
	return "median-kernel plus the processor-side data layout transform"
}

// Run implements apps.Benchmark.
func (Total) Run(m *radram.Machine, pages float64) error { return run(m, pages, true) }

// PortedBackends implements apps.Ported (see Benchmark.PortedBackends).
func (Total) PortedBackends() []string { return []string{"simdram"} }

func run(m *radram.Machine, pages float64, total bool) error {
	rows := blockRows(m)
	h := int(pages * float64(rows))
	if h < 3 {
		h = 3
	}
	k := size{width(m), h}
	in := inputs.Get(k, func() input { return newInput(k) })

	var got *workload.Image
	var err error
	if m.AP == nil {
		got = runConventional(m, in.img, in.want, total)
	} else {
		got, err = runRADram(m, in.img, total)
		if err != nil {
			return err
		}
	}
	for i := range in.want.Pix {
		if got.Pix[i] != in.want.Pix[i] {
			return fmt.Errorf("median: pixel %d = %d, want %d", i, got.Pix[i], in.want.Pix[i])
		}
	}
	return nil
}

// inputs memoizes the image and its reference filter per image size
// (shared, read-only; see workload.Memo).
var inputs workload.Memo[size, input]

type size struct{ w, h int }

type input struct {
	img, want *workload.Image
}

func newInput(k size) input {
	img := workload.NewImage(seed, k.w, k.h)
	return input{img: img, want: img.MedianReference()}
}

// runConventional filters on the processor with the minimal comparison
// network. Input lives at DataBase, output right after.
//
// Per pixel the sliding window keeps six pixels in registers; three new
// pixels load per step (one per input row, column clamp(x+1)), the
// comparison network runs, and the median stores. Along each row that is a
// fixed 2-byte-stride pattern for x < W-1 — three reads at constant row
// offsets plus one write — with the column-clamped last pixel as a scalar
// tail. The row-clamped top and bottom rows issue as flat streams; the
// interior rows, whose pattern repeats exactly under a one-row-pitch
// translation, issue as a single two-level nested stream so the hierarchy's
// outer-granularity fold can fast-forward whole row periods. The median
// values themselves come from the precomputed reference image (the
// network's output is deterministic, so the host need not rerun it) and are
// placed in the store in bulk; the result image reads back from the store,
// so the verification still covers the output addressing. Input and output
// are memoized images the run only reads, so the store maps both.
func runConventional(m *radram.Machine, img, want *workload.Image, total bool) *workload.Image {
	inBase := uint64(layout.DataBase)
	outBase := inBase + uint64(len(img.Pix))*2
	m.Store.MapU16Slice(inBase, img.Pix) // setup, not timed

	if total {
		// Image I/O phase: the conventional version also walks the input
		// once (read from I/O buffer, write to working array).
		chargeStreamCopy(m, inBase, scratchBase, uint64(len(img.Pix))*2)
	}

	cpu := m.CPU
	w, h := img.W, img.H
	rowB := int64(w) * 2
	outDelta := int64(outBase) - int64(inBase)
	xx := int64(w-1) * 2
	// filterRow issues one row-clamped boundary row (y = 0 or y = h-1).
	filterRow := func(y int) {
		ym := int64(clamp(y-1, h))
		y0 := int64(y)
		yp := int64(clamp(y+1, h))
		base := inBase + uint64(y0*rowB)
		accs := [4]memsys.StreamAcc{
			{Off: (ym-y0)*rowB + 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: (yp-y0)*rowB + 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: outDelta, Size: 2, Count: 1, Kind: memsys.Write},
		}
		if w > 1 {
			cpu.Stream(base, 2, uint64(w-1), accs[:], 19+3)
		}
		// x = W-1: the column clamp re-reads column W-1, breaking the stride.
		cpu.TouchLoad(inBase+uint64(ym*rowB+xx), 2)
		cpu.TouchLoad(inBase+uint64(y0*rowB+xx), 2)
		cpu.TouchLoad(inBase+uint64(yp*rowB+xx), 2)
		cpu.Compute(19 + 3) // comparison network + loop bookkeeping
		cpu.TouchStore(outBase+uint64(y0*rowB+xx), 2)
	}
	filterRow(0)
	if h > 2 {
		// Interior rows y = 1 .. h-2: no clamp, so every row is the same
		// pattern translated by one row pitch — inner sweep over x, last
		// pixel as the per-row tail.
		accs := [4]memsys.StreamAcc{
			{Off: -rowB + 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: rowB + 2, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: outDelta, Size: 2, Count: 1, Kind: memsys.Write},
		}
		tail := [4]memsys.StreamAcc{
			{Off: -rowB + xx, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: xx, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: rowB + xx, Size: 2, Count: 1, Kind: memsys.Read},
			{Off: outDelta + xx, Size: 2, Count: 1, Kind: memsys.Write},
		}
		var innerN uint64
		if w > 1 {
			innerN = uint64(w - 1)
		}
		cpu.NestedStream(inBase+uint64(rowB), rowB, uint64(h-2),
			2, innerN, accs[:], 19+3, tail[:], 19+3)
	}
	if h > 1 {
		filterRow(h - 1)
	}
	m.Store.MapU16Slice(outBase, want.Pix) // functional result, not timed
	out := &workload.Image{W: w, H: h, Pix: make([]uint16, len(img.Pix))}
	m.Store.ReadU16Slice(outBase, out.Pix)
	return out
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// chargeStreamCopy charges a processor-side streaming copy of n bytes from
// src to dst (cache-line chunks through the data cache).
func chargeStreamCopy(m *radram.Machine, src, dst uint64, n uint64) {
	cpu := m.CPU
	const chunk = 1024
	tmp := make([]byte, chunk)
	for off := uint64(0); off < n; off += chunk {
		c := uint64(chunk)
		if off+c > n {
			c = n - off
		}
		cpu.ReadBlock(src+off, tmp[:c])
		cpu.WriteBlock(dst+off, tmp[:c])
		cpu.Compute(chunk / 64) // loop overhead per line pair
	}
}

// scratchBase is working space far above the Active-Page region, used by
// the layout-transform phase of median-total.
const scratchBase = 1 << 32

// medianFn is the page circuit: 3x3 median over the page's row block.
// Layout inside a page: header | input rows (block+2 halos) | output rows.
// The in/out scratch slices persist across activations; functions are
// bound per machine, so reuse is single-threaded.
type medianFn struct {
	w   int
	in  []uint16
	out []uint16
}

func (*medianFn) Name() string          { return "median9" }
func (*medianFn) Design() *logic.Design { return circuits.Median() }

// BitSerial implements core.BitSerialFunction: 16-bit pixels, one output
// pixel per lane.
func (*medianFn) BitSerial() backend.BitSerial {
	return backend.BitSerial{Width: 16, TempRows: simdram.TempRowsFor(16)}
}

func (f *medianFn) Run(ctx *core.PageContext) (core.Result, error) {
	rows := int(ctx.Args[0]) // output rows in this block
	w := f.w
	inOff := uint64(layout.HeaderBytes)
	outOff := inOff + uint64((rows+2)*w)*2

	if len(f.in) < (rows+2)*w {
		f.in = make([]uint16, (rows+2)*w)
	}
	if len(f.out) < rows*w {
		f.out = make([]uint16, rows*w)
	}
	in, out := f.in[:(rows+2)*w], f.out[:rows*w]
	ctx.ReadU16Slice(inOff, in)

	for y := 0; y < rows; y++ {
		filterRow(out[y*w:][:w], in[y*w:][:w], in[(y+1)*w:][:w], in[(y+2)*w:][:w])
	}
	ctx.WriteU16Slice(outOff, out)
	// Bit-serial: the 9-value median is a 19-stage min/max network; each
	// stage is one compare plus a conditional swap (two masked copies).
	return ctx.FinishOps(uint64(rows*w)*medianCyclesPerPixel, backend.Ops{
		Width: 16, Elems: uint64(rows * w), Cmps: 19, Copies: 9 + 2*19,
	})
}

// filterRow writes the 3x3 median of one output row o from its input rows
// r0 (above), r1 and r2 (below), all of length len(o), with the columns
// clamped at the edges (replicate padding). It sorts each 3-pixel column
// once and slides three sorted columns along the row: the median of the
// nine pixels is the median of the largest low, the median mid and the
// smallest high. Every step is a branch-free min or max.
func filterRow(o, r0, r1, r2 []uint16) {
	w := len(o)
	r0, r1, r2 = r0[:w], r1[:w], r2[:w]
	// a, b and c are the sorted columns left of, at and right of the output
	// pixel; column 0 stands in for column -1.
	bl, bm, bh := sort3(r0[0], r1[0], r2[0])
	al, am, ah := bl, bm, bh
	for x := 1; x < w; x++ {
		cl, cm, ch := sort3(r0[x], r1[x], r2[x])
		o[x-1] = med3(max(al, bl, cl), med3(am, bm, cm), min(ah, bh, ch))
		al, am, ah, bl, bm, bh = bl, bm, bh, cl, cm, ch
	}
	// Column w-1 stands in for column w.
	o[w-1] = med3(max(al, bl), bm, min(ah, bh))
}

// sort3 returns a, b and c in ascending order.
func sort3(a, b, c uint16) (lo, mid, hi uint16) {
	lo, hi = min(a, b), max(a, b)
	mid = max(lo, c)
	lo = min(lo, c)
	return lo, min(mid, hi), max(mid, hi)
}

// med3 returns the median of a, b and c.
func med3(a, b, c uint16) uint16 {
	return max(min(a, b), min(max(a, b), c))
}

// runRADram distributes row blocks with halos over pages and filters them
// in parallel.
func runRADram(m *radram.Machine, img *workload.Image, total bool) (*workload.Image, error) {
	rows := blockRows(m)
	nPages := (img.H + rows - 1) / rows
	pagesList, err := m.AP.AllocRange("median", layout.DataBase, uint64(nPages))
	if err != nil {
		return nil, err
	}

	// Layout transform: place each block with its halo rows, rows first-1
	// through first+blk. Those inside the image are contiguous in img.Pix
	// and the page function only reads them, so the store maps them; a
	// halo row past the image's top or bottom edge replicates the edge row
	// and is written.
	rowBytes := uint64(img.W) * 2
	for p := 0; p < nPages; p++ {
		first := p * rows
		blk := min(rows, img.H-first)
		dst := pagesList[p].Base + layout.HeaderBytes
		lo, hi := max(first-1, 0), min(first+blk, img.H-1) // rows in the image
		m.Store.MapU16Slice(dst+uint64(lo-first+1)*rowBytes, img.Pix[lo*img.W:(hi+1)*img.W])
		if lo > first-1 { // the top halo replicates row 0
			m.Store.WriteU16Slice(dst, img.Pix[:img.W])
		}
		if hi < first+blk { // the bottom halo replicates row H-1
			m.Store.WriteU16Slice(dst+uint64(blk+1)*rowBytes, img.Pix[hi*img.W:])
		}
	}
	if total {
		// The transform above is processor work in the real system: charge
		// a streaming copy of the input image into the page blocks, read
		// from scratch working space so the charge never disturbs the page
		// contents laid out above.
		chargeStreamCopy(m, scratchBase, scratchBase+uint64(img.H)*rowBytes,
			uint64(img.H)*rowBytes)
		m.CPU.Compute(uint64(nPages) * 64) // per-block halo bookkeeping
	}

	if err := m.AP.Bind("median", &medianFn{w: img.W}); err != nil {
		return nil, err
	}
	for p := 0; p < nPages; p++ {
		blk := min(rows, img.H-p*rows)
		if err := m.AP.Activate(pagesList[p], "median9", uint64(blk)); err != nil {
			return nil, err
		}
	}

	// Collect: wait per page and read the filtered block back (the paper's
	// processor does image I/O from the output areas).
	out := &workload.Image{W: img.W, H: img.H, Pix: make([]uint16, len(img.Pix))}
	for p := 0; p < nPages; p++ {
		m.AP.Wait(pagesList[p])
		blk := min(rows, img.H-p*rows)
		outAddr := pagesList[p].Base + layout.HeaderBytes + uint64(blk+2)*rowBytes
		m.Store.ReadU16Slice(outAddr, out.Pix[p*rows*img.W:p*rows*img.W+blk*img.W])
		// The processor touches one sync word per page here; bulk image
		// output stays in memory for the next pipeline stage.
		m.CPU.Compute(8)
	}
	return out, nil
}
