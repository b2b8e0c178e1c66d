package workload

import "math/rand"

// SparseMatrix is a sparse matrix in compressed sparse row (CSR) form with
// float64 values, the layout both matrix implementations operate on.
type SparseMatrix struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries; row i's nonzeros are
	// [RowPtr[i], RowPtr[i+1]).
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (m *SparseMatrix) NNZ() int { return len(m.Col) }

// RowNNZ returns the nonzero count of row i.
func (m *SparseMatrix) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// BoeingStyle generates a Harwell-Boeing-flavoured finite-element matrix:
// square, symmetric-pattern, banded with a few long-range couplings, and a
// dense-ish diagonal — the structure of the suite's BCSSTK/NOS matrices.
// n is the dimension and band the half-bandwidth.
func BoeingStyle(seed int64, n, band int) *SparseMatrix {
	r := rand.New(rand.NewSource(seed))
	m := &SparseMatrix{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		m.RowPtr[i] = int32(len(m.Col))
		seen := map[int32]bool{int32(i): true}
		add := func(j int32, v float64) {
			if seen[j] {
				return
			}
			seen[j] = true
			m.Col = append(m.Col, j)
			m.Val = append(m.Val, v)
		}
		for k := 0; k < band; k++ {
			// Cluster columns inside the band around the diagonal.
			off := r.Intn(2*band+1) - band
			j := i + off
			if j < 0 || j >= n {
				continue
			}
			add(int32(j), 1+r.Float64())
		}
		// Occasional long-range coupling (multi-point constraints).
		if r.Intn(8) == 0 {
			add(int32(r.Intn(n)), r.Float64())
		}
		// Always a diagonal entry (positive definite style).
		m.Col = append(m.Col, int32(i))
		m.Val = append(m.Val, float64(band)+2)
		sortRow(m.Col[m.RowPtr[i]:], m.Val[m.RowPtr[i]:])
	}
	m.RowPtr[n] = int32(len(m.Col))
	return m
}

// SimplexStyle generates the constraint-matrix pattern of a register-
// allocation LP solved with Simplex ([GW96] in the paper): many short rows
// (one constraint per live range/conflict) over a wide variable space,
// highly irregular column positions.
func SimplexStyle(seed int64, rows, cols, nnzPerRow int) *SparseMatrix {
	r := rand.New(rand.NewSource(seed))
	m := &SparseMatrix{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < rows; i++ {
		m.RowPtr[i] = int32(len(m.Col))
		seen := map[int32]bool{}
		for k := 0; k < nnzPerRow; k++ {
			j := int32(r.Intn(cols))
			if seen[j] {
				continue
			}
			seen[j] = true
			m.Col = append(m.Col, j)
			// 0/1/-1 coefficients dominate register-allocation LPs.
			m.Val = append(m.Val, float64(1-2*r.Intn(2)))
		}
		sortRow(m.Col[m.RowPtr[i]:], m.Val[m.RowPtr[i]:])
	}
	m.RowPtr[rows] = int32(len(m.Col))
	return m
}

// sortRow insertion-sorts a row's (col, val) pairs by column; rows are
// short, so insertion sort is right.
func sortRow(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// SparseDotReference computes the dot product of two sparse rows given as
// (col, val) pairs, the kernel of sparse matrix-matrix multiply.
func SparseDotReference(ca []int32, va []float64, cb []int32, vb []float64) float64 {
	i, j := 0, 0
	sum := 0.0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i] == cb[j]:
			sum += va[i] * vb[j]
			i++
			j++
		case ca[i] < cb[j]:
			i++
		default:
			j++
		}
	}
	return sum
}

// ---------------------------------------------------------------------------
// MPEG: synthetic frames and correction matrices (Section 5.2).

// MPEGFrame holds reference-frame samples and the correction matrix a P or
// B frame applies to them, as 16-bit values block by block.
type MPEGFrame struct {
	Blocks     int
	Reference  []int16 // Blocks * 64 samples
	Correction []int16 // Blocks * 64 correction values
}

// NewMPEGFrame generates blocks of plausible DCT-domain data: large DC
// coefficients, decaying AC energy, small corrections.
func NewMPEGFrame(seed int64, blocks int) *MPEGFrame {
	r := rand.New(rand.NewSource(seed))
	f := &MPEGFrame{
		Blocks:     blocks,
		Reference:  make([]int16, blocks*64),
		Correction: make([]int16, blocks*64),
	}
	for b := 0; b < blocks; b++ {
		for k := 0; k < 64; k++ {
			decay := 1 + k/8
			f.Reference[b*64+k] = int16(r.Intn(2000/decay) - 1000/decay)
			f.Correction[b*64+k] = int16(r.Intn(200/decay) - 100/decay)
		}
	}
	return f
}

// ApplyCorrectionReference computes the corrected frame with saturating
// 16-bit adds, the checkable answer for the MMX implementations.
func (f *MPEGFrame) ApplyCorrectionReference() []int16 {
	out := make([]int16, len(f.Reference))
	for i := range out {
		s := int32(f.Reference[i]) + int32(f.Correction[i])
		if s > 32767 {
			s = 32767
		}
		if s < -32768 {
			s = -32768
		}
		out[i] = int16(s)
	}
	return out
}
