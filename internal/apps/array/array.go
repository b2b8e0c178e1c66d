// Package array implements the STL array-template study (Section 5.1): a
// dense array of 32-bit integers supporting insert, delete, and
// find/count, with the data layout and operation partitioning hidden
// behind one interface — the paper's C++ library design, where a single
// source works against either memory system.
//
// Conventional backend: a flat array; insert and delete memmove the tail,
// count scans.
//
// Active-Page backend: the array is distributed across pages. Insert and
// delete activate every affected page to shift its portion in parallel;
// the processor performs the cross-page boundary moves (Table 2:
// "Cross-page moves"). Count activates the binary-comparison circuit on
// every page and sums per-page counts. Deletes on arrays smaller than one
// page adaptively run on the processor, the paper's one case where the
// conventional code wins.
package array

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/apps/layout"
	"activepages/internal/memsys"
	"activepages/internal/radram"
	"activepages/internal/workload"
)

const (
	// Header slots (byte offsets in each page's header).
	slotBoundaryOut = 16 // element pushed out of this page by a shift
	slotCount       = 24 // find/count result

	seed = 7
)

// Benchmark is the array kernel: a fixed operation mix over an array sized
// to the requested pages.
type Benchmark struct{}

// Name implements apps.Benchmark.
func (Benchmark) Name() string { return "array" }

// Partitioning implements apps.Benchmark.
func (Benchmark) Partitioning() apps.Partitioning { return apps.MemoryCentric }

// Description implements apps.Benchmark.
func (Benchmark) Description() string {
	return "processor runs C++ array code and cross-page moves; pages insert, delete, and find"
}

// PortedBackends implements apps.Ported: the array circuits carry
// bit-serial ports (shift = lane-offset copy, count = compare + tree
// reduction), so the kernel also runs on the SIMDRAM backend.
func (Benchmark) PortedBackends() []string { return []string{"simdram"} }

// Array is the common interface of both backends, mirroring the paper's
// template class.
type Array interface {
	Len() int
	Insert(pos int, v uint32) error
	Delete(pos int) error
	Count(v uint32) (int, error)
	// Get reads one element (verification; charged like application reads).
	Get(pos int) uint32
}

// Run implements apps.Benchmark: build the array, run the op mix, verify
// against what a host-side reference run of the mix reads.
func (Benchmark) Run(m *radram.Machine, pages float64) error {
	perPage := int(layout.UsableBytes(m) / 4)
	n := int(pages * float64(perPage))
	if n < 8 {
		n = 8
	}
	// Leave headroom for inserts in the last page.
	n -= opCount + 1

	var arr Array
	var err error
	if m.AP == nil {
		arr, err = NewConventional(m, n)
	} else {
		arr, err = NewActive(m, n)
	}
	if err != nil {
		return err
	}

	want := mixes.Get(n, func() *mix { return newMix(n) })
	for k, pos := range want.inserts {
		if err := arr.Insert(pos, insertValue(k)); err != nil {
			return err
		}
	}
	for _, pos := range want.deletes {
		if err := arr.Delete(pos); err != nil {
			return err
		}
	}
	for k, key := range want.keys {
		got, err := arr.Count(key)
		if err != nil {
			return err
		}
		if got != want.counts[k] {
			return fmt.Errorf("array: count(%d) = %d, want %d", key, got, want.counts[k])
		}
	}

	// Verify a sample of positions plus the regions around every edit.
	for i, pos := range want.samples {
		if got := arr.Get(pos); got != want.values[i] {
			return fmt.Errorf("array: element %d = %d, want %d", pos, got, want.values[i])
		}
	}
	if arr.Len() != want.length {
		return fmt.Errorf("array: length %d, want %d", arr.Len(), want.length)
	}
	return nil
}

// opCount is the number of inserts (and deletes) in the benchmark mix.
const opCount = 4

func insertValue(k int) uint32 { return uint32(900000 + k) }

// mixes memoizes the op mix per initial element count (shared, read-only;
// see workload.Memo).
var mixes workload.Memo[int, *mix]

// mix is the paper-style operation mix over an array of n elements i*3,
// with everything Run's checks read from a host-side reference run of it:
// the mix's positions and keys come from the reference's length, which the
// final length check ties to the array's.
type mix struct {
	inserts, deletes [opCount]int
	keys             [opCount]uint32
	counts           [opCount]int // reference matches of each key
	length           int          // reference length after the mix
	samples          []int        // samplePositions(length)
	values           []uint32     // reference elements at samples
}

func newMix(n int) *mix {
	ref := make([]uint32, n)
	for i := range ref {
		ref[i] = uint32(i) * 3
	}
	mx := &mix{}
	// Deterministic positions spread over the array.
	for k := range mx.inserts {
		pos := (n / (k + 2)) % max(len(ref), 1)
		mx.inserts[k] = pos
		ref = append(ref, 0)
		copy(ref[pos+1:], ref[pos:])
		ref[pos] = insertValue(k)
	}
	for k := range mx.deletes {
		pos := (n / (k + 3)) % len(ref)
		mx.deletes[k] = pos
		copy(ref[pos:], ref[pos+1:])
		ref = ref[:len(ref)-1]
	}
	for k := range mx.keys {
		key := uint32(3 * ((n / (k + 2)) % max(n, 1)))
		mx.keys[k] = key
		for _, v := range ref {
			if v == key {
				mx.counts[k]++
			}
		}
	}
	mx.length = len(ref)
	mx.samples = samplePositions(len(ref))
	for _, pos := range mx.samples {
		mx.values = append(mx.values, ref[pos])
	}
	return mx
}

func samplePositions(n int) []int {
	ps := []int{0, n - 1, n / 2, n / 3, n / 5, n / 7}
	out := ps[:0]
	for _, p := range ps {
		if p >= 0 && p < n {
			out = append(out, p)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Conventional backend.

// Conventional is the flat-array backend.
type Conventional struct {
	m    *radram.Machine
	base uint64
	n    int
	// elems is reusable scratch for Count.
	elems []uint32
}

// NewConventional builds the array with initial contents i*3 (setup, not
// timed).
func NewConventional(m *radram.Machine, n int) (*Conventional, error) {
	a := &Conventional{m: m, base: layout.DataBase, n: n}
	var vals [4096]uint32
	for start := 0; start < n; start += len(vals) {
		c := min(n-start, len(vals))
		for i := 0; i < c; i++ {
			vals[i] = uint32(start+i) * 3
		}
		m.Store.WriteU32Slice(a.base+uint64(start)*4, vals[:c])
	}
	return a, nil
}

// Len implements Array.
func (a *Conventional) Len() int { return a.n }

// Get implements Array.
func (a *Conventional) Get(pos int) uint32 {
	return a.m.CPU.LoadU32(a.base + uint64(pos)*4)
}

// memmove charges and performs an optimized tail move of count elements
// from src to dst element indices. The full 256-element chunks form a fixed
// 1 KB-stride stream of read/write pairs (the write a constant offset from
// the read), which the folding layer can fast-forward; the bytes move in
// one bulk store operation, which is what the chunked loop computes anyway.
func (a *Conventional) memmove(dst, src, count int) {
	if count <= 0 {
		return
	}
	cpu := a.m.CPU
	const chunkElems = 256
	a.m.Store.Move(a.base+uint64(dst)*4, a.base+uint64(src)*4, uint64(count)*4) // functional move, not timed

	full := count / chunkElems
	rem := count - full*chunkElems
	accs := [2]memsys.StreamAcc{
		{Off: 0, Size: chunkElems * 4, Count: 1, Kind: memsys.Read},
		{Off: int64(dst-src) * 4, Size: chunkElems * 4, Count: 1, Kind: memsys.Write},
	}
	const cpi = chunkElems/8 + 4 // unrolled loop overhead
	if dst > src {
		// Move backward (from the top) so the tail is not clobbered: full
		// chunks descend from the top, then the partial bottom chunk.
		if full > 0 {
			cpu.Stream(a.base+uint64(src+count-chunkElems)*4, -chunkElems*4,
				uint64(full), accs[:], cpi)
		}
		if rem > 0 {
			cpu.TouchLoad(a.base+uint64(src)*4, uint64(rem)*4)
			cpu.TouchStore(a.base+uint64(dst)*4, uint64(rem)*4)
			cpu.Compute(uint64(rem/8 + 4))
		}
		return
	}
	if full > 0 {
		cpu.Stream(a.base+uint64(src)*4, chunkElems*4, uint64(full), accs[:], cpi)
	}
	if rem > 0 {
		cpu.TouchLoad(a.base+uint64(src+full*chunkElems)*4, uint64(rem)*4)
		cpu.TouchStore(a.base+uint64(dst+full*chunkElems)*4, uint64(rem)*4)
		cpu.Compute(uint64(rem/8 + 4))
	}
}

// Insert implements Array.
func (a *Conventional) Insert(pos int, v uint32) error {
	a.memmove(pos+1, pos, a.n-pos)
	a.m.CPU.StoreU32(a.base+uint64(pos)*4, v)
	a.m.CPU.Compute(6)
	a.n++
	return nil
}

// Delete implements Array.
func (a *Conventional) Delete(pos int) error {
	a.memmove(pos, pos+1, a.n-pos-1)
	a.m.CPU.Compute(6)
	a.n--
	return nil
}

// Count implements Array. The scan streams ascending, so the loads batch
// into chunked bulk reads; the per-element compare/increment/loop charge
// aggregates with them, exactly as the scalar loop would accumulate it. The
// full chunks are a fixed 1 KB-stride stream the folding layer can
// fast-forward; the comparisons run host-side over one bulk read.
func (a *Conventional) Count(v uint32) (int, error) {
	cpu := a.m.CPU
	const chunkElems = 256
	if cap(a.elems) < a.n {
		a.elems = make([]uint32, a.n)
	}
	vals := a.elems[:a.n]
	a.m.Store.ReadU32Slice(a.base, vals) // functional scan, not timed
	count := 0
	for _, e := range vals {
		if e == v {
			count++
		}
	}
	full := a.n / chunkElems
	rem := a.n - full*chunkElems
	if full > 0 {
		accs := [1]memsys.StreamAcc{{Size: 4, Count: chunkElems, Kind: memsys.Read}}
		cpu.Stream(a.base, chunkElems*4, uint64(full), accs[:], chunkElems*3)
	}
	if rem > 0 {
		accs := [1]memsys.StreamAcc{{Size: 4, Count: uint64(rem), Kind: memsys.Read}}
		cpu.Stream(a.base+uint64(full*chunkElems)*4, chunkElems*4, 1, accs[:], uint64(rem)*3)
	}
	return count, nil
}
