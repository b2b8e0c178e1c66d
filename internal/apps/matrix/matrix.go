// Package matrix implements the sparse-matrix study (Section 5.2): sparse
// vector-vector dot products, the key kernel of the paper's Simplex
// register-allocation and Harwell-Boeing finite-element workloads.
//
// The benchmark computes dot(row_i, row_i+1) for every adjacent row pair
// of the matrix — the index-matching pattern at the heart of sparse
// matrix-matrix multiply.
//
// Conventional partition: the processor fetches the indices of every
// nonzero in both vectors, merge-walks them to find matches, fetches the
// matching data, multiplies, and writes results — the bandwidth-bound
// pattern the paper describes.
//
// Active-Page partition (compare-gather-compute): pages hold co-located
// vector pairs; the gather circuit walks the index vectors and packs the
// matching value pairs into cache-line-sized output blocks. The processor
// reads only the packed "useful" data, multiplies at peak floating-point
// speed, and writes back results.
package matrix

import (
	"fmt"
	"math"

	"activepages/internal/apps"
	"activepages/internal/apps/layout"
	"activepages/internal/circuits"
	"activepages/internal/core"
	"activepages/internal/logic"
	"activepages/internal/radram"
	"activepages/internal/workload"
)

// Variant selects the workload of the two matrix benchmarks.
type Variant int

const (
	// Boeing is the Harwell-Boeing-style finite-element matrix.
	Boeing Variant = iota
	// Simplex is the register-allocation LP constraint matrix.
	Simplex
)

const seed = 73

// Benchmark is one matrix kernel.
type Benchmark struct{ Variant Variant }

// Name implements apps.Benchmark.
func (b Benchmark) Name() string {
	if b.Variant == Boeing {
		return "matrix-boeing"
	}
	return "matrix-simplex"
}

// Partitioning implements apps.Benchmark.
func (Benchmark) Partitioning() apps.Partitioning { return apps.ProcessorCentric }

// Description implements apps.Benchmark.
func (Benchmark) Description() string {
	return "processor multiplies floating point; pages compare indices and gather/scatter data"
}

// pairBytes estimates the page bytes one row pair occupies: indices (4 B)
// and values (8 B) for both rows, plus the gathered-output reservation (16
// B per potential match) and the result slot.
func pairBytes(nnzA, nnzB, maxMatch int) int {
	return (nnzA+nnzB)*12 + maxMatch*16 + 16
}

// rows sizes the variant's matrix so its row pairs fill the requested pages.
func (b Benchmark) rows(m *radram.Machine, pages float64) int {
	// Boeing: banded FEM matrix, ~16 nnz per row. Adjacent banded rows
	// overlap heavily, giving the high match density that saturates the
	// processor after a few pages (Figure 3's early matrix saturation).
	// Simplex: short rows over a wide variable space; sparse overlap.
	per := pairBytes(12, 12, 12)
	if b.Variant == Boeing {
		per = pairBytes(17, 17, 17)
	}
	return int(pages*float64(layout.UsableBytes(m))/float64(per)) + 1
}

// Run implements apps.Benchmark.
func (b Benchmark) Run(m *radram.Machine, pages float64) error {
	k := inputKey{b.Variant, b.rows(m, pages)}
	in := inputs.Get(k, func() *input { return newInput(k.matrix()) })

	var got []float64
	var err error
	if m.AP == nil {
		got = runConventional(m, in)
	} else {
		got, err = runRADram(m, in)
		if err != nil {
			return err
		}
	}
	for i, want := range in.want {
		if math.Abs(got[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("%s: dot %d = %g, want %g", b.Name(), i, got[i], want)
		}
	}
	return nil
}

// inputs memoizes the matrix, its reference dot products and its
// simulated-memory words per variant and size (shared, read-only; see
// workload.Memo).
var inputs workload.Memo[inputKey, *input]

type inputKey struct {
	variant Variant
	rows    int
}

// matrix generates the key's matrix: rows+1 rows, so rows adjacent pairs.
func (k inputKey) matrix() *workload.SparseMatrix {
	if k.variant == Boeing {
		return workload.BoeingStyle(seed, k.rows+1, 16)
	}
	return workload.SimplexStyle(seed, k.rows+1, 4096, 12)
}

// input is a matrix with what every run of it needs host-side: the
// reference dot product of each adjacent row pair, and the columns and
// values in the simulated-memory word formats for bulk setup writes.
type input struct {
	mat  *workload.SparseMatrix
	want []float64
	cols []uint32
	vals []uint64
}

func newInput(mat *workload.SparseMatrix) *input {
	in := &input{
		mat:  mat,
		want: make([]float64, mat.Rows-1),
		cols: make([]uint32, mat.NNZ()),
		vals: make([]uint64, mat.NNZ()),
	}
	for i := range in.want {
		in.want[i] = workload.SparseDotReference(
			mat.Col[mat.RowPtr[i]:mat.RowPtr[i+1]], mat.Val[mat.RowPtr[i]:mat.RowPtr[i+1]],
			mat.Col[mat.RowPtr[i+1]:mat.RowPtr[i+2]], mat.Val[mat.RowPtr[i+1]:mat.RowPtr[i+2]])
	}
	for k, c := range mat.Col {
		in.cols[k] = uint32(c)
		in.vals[k] = math.Float64bits(mat.Val[k])
	}
	return in
}

// ---------------------------------------------------------------------------
// Conventional implementation.

// Conventional CSR layout at DataBase: colA ints, then values as float64
// bits, per row, laid out contiguously. The merge walk only reads them, so
// the store maps the memoized words.
func runConventional(m *radram.Machine, in *input) []float64 {
	mat, nPairs := in.mat, len(in.want)
	base := uint64(layout.DataBase)
	colBase := base
	valBase := base + uint64(mat.NNZ())*4
	m.Store.MapU32Slice(colBase, in.cols)
	m.Store.MapU64Slice(valBase, in.vals)

	cpu := m.CPU
	out := make([]float64, nPairs)
	for r := 0; r < nPairs; r++ {
		ia, ea := int(mat.RowPtr[r]), int(mat.RowPtr[r+1])
		ib, eb := int(mat.RowPtr[r+1]), int(mat.RowPtr[r+2])
		sum := 0.0
		for ia < ea && ib < eb {
			ca := cpu.LoadU32(colBase + uint64(ia)*4)
			cb := cpu.LoadU32(colBase + uint64(ib)*4)
			cpu.Compute(6) // compare, data-dependent branch (mispredicts), advance
			switch {
			case ca == cb:
				va := math.Float64frombits(cpu.LoadU64(valBase + uint64(ia)*8))
				vb := math.Float64frombits(cpu.LoadU64(valBase + uint64(ib)*8))
				cpu.ComputeFP(2) // multiply + accumulate
				sum += va * vb
				ia++
				ib++
			case ca < cb:
				ia++
			default:
				ib++
			}
		}
		out[r] = sum
		cpu.StoreU64(base+uint64(mat.NNZ())*12+uint64(r)*8, math.Float64bits(sum))
		cpu.Compute(8) // row-pair loop bookkeeping
	}
	return out
}

// ---------------------------------------------------------------------------
// Active-Page implementation.

// Page layout (offsets from the page base):
//
//	header (256 B): [16] pair count, [24] total match count
//	pair directory: per pair, 8 words:
//	    nA, offColA, offValA, nB, offColB, offValB, offOut, reserved
//	row data: column indices (u32) and values (f64)
//	gathered output: per pair, a count word then packed (va, vb) pairs
const (
	slotPairCount = 16
	dirBase       = layout.HeaderBytes
	dirWords      = 8
)

// gatherFn is the compare-gather circuit. Context reads are functional, so
// the circuit bulk-reads each pair's index and value vectors and merge-walks
// them host-side; the charge is the cycle count computed below, which keeps
// the per-step merge accounting. Scratch slices persist across activations
// (functions are bound per machine, single-threaded).
type gatherFn struct {
	dir, colA, colB []uint32
	valA, valB, out []uint64
}

func (*gatherFn) Name() string          { return "mat-gather" }
func (*gatherFn) Design() *logic.Design { return circuits.Matrix() }

func (f *gatherFn) grow(n uint64) {
	if uint64(len(f.colA)) < n {
		f.colA = make([]uint32, n)
		f.colB = make([]uint32, n)
		f.valA = make([]uint64, n)
		f.valB = make([]uint64, n)
		f.out = make([]uint64, 2*n)
	}
}

func (f *gatherFn) Run(ctx *core.PageContext) (core.Result, error) {
	nPairs := ctx.ReadU32(slotPairCount)
	if uint64(len(f.dir)) < uint64(nPairs)*dirWords {
		f.dir = make([]uint32, uint64(nPairs)*dirWords)
	}
	dir := f.dir[:uint64(nPairs)*dirWords]
	ctx.ReadU32Slice(dirBase, dir)
	var cycles uint64
	for p := uint32(0); p < nPairs; p++ {
		d := dir[uint64(p)*dirWords:]
		nA := uint64(d[0])
		offColA := uint64(d[1])
		offValA := uint64(d[2])
		nB := uint64(d[3])
		offColB := uint64(d[4])
		offValB := uint64(d[5])
		offOut := uint64(d[6])

		f.grow(max(nA, nB))
		colA, colB := f.colA[:nA], f.colB[:nB]
		valA, valB := f.valA[:nA], f.valB[:nB]
		ctx.ReadU32Slice(offColA, colA)
		ctx.ReadU32Slice(offColB, colB)
		ctx.ReadU64Slice(offValA, valA)
		ctx.ReadU64Slice(offValB, valB)

		var ia, ib, matches uint64
		for ia < nA && ib < nB {
			ca := colA[ia]
			cb := colB[ib]
			cycles += 2 // fetch + compare/advance
			switch {
			case ca == cb:
				f.out[2*matches] = valA[ia]
				f.out[2*matches+1] = valB[ib]
				matches++
				cycles += 4 // gather two doubles through the 32-bit port
				ia++
				ib++
			case ca < cb:
				ia++
			default:
				ib++
			}
		}
		if matches > 0 {
			ctx.WriteU64Slice(offOut+4, f.out[:2*matches])
		}
		ctx.WriteU32(offOut, uint32(matches))
		cycles += 6 // pair FSM overhead
	}
	return ctx.Finish(cycles)
}

// runRADram lays row pairs out across pages, runs the gather circuit, and
// multiplies the packed operands on the processor.
func runRADram(m *radram.Machine, in *input) ([]float64, error) {
	mat, nPairs := in.mat, len(in.want)
	usable := layout.UsableBytes(m)

	// Partition pairs into pages.
	type pageplan struct {
		firstPair, nPairs int
	}
	var plans []pageplan
	cur := pageplan{firstPair: 0}
	bytesUsed := 0
	for p := 0; p < nPairs; p++ {
		nA := mat.RowNNZ(p)
		nB := mat.RowNNZ(p + 1)
		need := pairBytes(nA, nB, min(nA, nB)) + dirWords*4
		if bytesUsed+need > int(usable)-dirBase && cur.nPairs > 0 {
			plans = append(plans, cur)
			cur = pageplan{firstPair: p}
			bytesUsed = 0
		}
		cur.nPairs++
		bytesUsed += need
	}
	plans = append(plans, cur)

	pagesList, err := m.AP.AllocRange("matrix", layout.DataBase, uint64(len(plans)))
	if err != nil {
		return nil, err
	}
	if err := m.AP.Bind("matrix", &gatherFn{}); err != nil {
		return nil, err
	}

	// Lay out each page: directory, then row data, then output areas
	// (setup, not timed — data is resident in memory).
	outOffs := make([][]uint32, len(plans))
	for pi, plan := range plans {
		base := pagesList[pi].Base
		m.Store.WriteU32(base+slotPairCount, uint32(plan.nPairs))
		dataOff := uint32(dirBase + plan.nPairs*dirWords*4)
		outOffs[pi] = make([]uint32, plan.nPairs)
		for k := 0; k < plan.nPairs; k++ {
			p := plan.firstPair + k
			nA, nB := mat.RowNNZ(p), mat.RowNNZ(p+1)
			d := base + uint64(dirBase) + uint64(k)*dirWords*4

			offColA := dataOff
			offValA := offColA + uint32(nA)*4
			offColB := offValA + uint32(nA)*8
			offValB := offColB + uint32(nB)*4
			offOut := offValB + uint32(nB)*8
			dataOff = offOut + 4 + uint32(min(nA, nB))*16

			m.Store.WriteU32(d, uint32(nA))
			m.Store.WriteU32(d+4, offColA)
			m.Store.WriteU32(d+8, offValA)
			m.Store.WriteU32(d+12, uint32(nB))
			m.Store.WriteU32(d+16, offColB)
			m.Store.WriteU32(d+20, offValB)
			m.Store.WriteU32(d+24, offOut)
			outOffs[pi][k] = offOut

			writeRow := func(colOff, valOff uint32, row int) {
				s, e := mat.RowPtr[row], mat.RowPtr[row+1]
				m.Store.WriteU32Slice(base+uint64(colOff), in.cols[s:e])
				m.Store.WriteU64Slice(base+uint64(valOff), in.vals[s:e])
			}
			writeRow(offColA, offValA, p)
			writeRow(offColB, offValB, p+1)
		}
	}

	// Activate every page's gather.
	for pi := range plans {
		if err := m.AP.Activate(pagesList[pi], "mat-gather"); err != nil {
			return nil, err
		}
	}

	// Compute phase: read packed operands, multiply at peak FP rate.
	cpu := m.CPU
	out := make([]float64, nPairs)
	lineBuf := make([]byte, 64)
	for pi, plan := range plans {
		m.AP.Wait(pagesList[pi])
		base := pagesList[pi].Base
		for k := 0; k < plan.nPairs; k++ {
			offOut := uint64(outOffs[pi][k])
			matches := cpu.UncachedLoadU32(base + offOut)
			sum := 0.0
			// Read gathered operands in cache-line-sized blocks over the
			// bus — only "useful" data travels (Section 5.2).
			for mdone := uint64(0); mdone < uint64(matches); {
				c := min(uint64(matches)-mdone, 4) // 4 pairs = 64 bytes
				cpu.UncachedReadBlock(base+offOut+4+mdone*16, lineBuf[:c*16])
				for j := uint64(0); j < c; j++ {
					va := math.Float64frombits(leU64(lineBuf[j*16:]))
					vb := math.Float64frombits(leU64(lineBuf[j*16+8:]))
					sum += va * vb
				}
				cpu.ComputeFP(2 * c)
				mdone += c
			}
			out[plan.firstPair+k] = sum
			cpu.StoreU64(base+offOut, math.Float64bits(sum))
			cpu.Compute(6)
		}
	}
	return out, nil
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}
