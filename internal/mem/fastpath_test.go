package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// eachSlicePath runs f once on the path the host takes and once on the
// portable element-by-element path, forced by clearing littleEndian. On a
// big-endian host the two are the same path and the first run is skipped.
func eachSlicePath(t *testing.T, f func(t *testing.T)) {
	t.Run("bulk", func(t *testing.T) {
		if !littleEndian {
			t.Skip("big-endian host: the typed slice accessors take the portable path")
		}
		f(t)
	})
	t.Run("portable", func(t *testing.T) {
		saved := littleEndian
		littleEndian = false
		t.Cleanup(func() { littleEndian = saved })
		f(t)
	})
}

// sliceOps is one element width's scalar and slice accessors.
type sliceOps[T uint16 | uint32 | uint64] struct {
	write      func(*Store, uint64, T)
	read       func(*Store, uint64) T
	writeSlice func(*Store, uint64, []T)
	readSlice  func(*Store, uint64, []T)
}

// checkSliceOps writes n random values at start through the slice
// accessor into one store and through the scalar accessor into another.
// The slice read must return the values, and the two stores must hold the
// same bytes over the span and 8 bytes on either side. An empty slice
// must not allocate a frame.
func checkSliceOps[T uint16 | uint32 | uint64](t *testing.T, rng *rand.Rand, ops sliceOps[T], start uint64, n int) {
	t.Helper()
	size := uint64(binary.Size(T(0)))
	a, b := NewStore(), NewStore()
	src := make([]T, n)
	for i := range src {
		src[i] = T(rng.Uint64())
	}
	ops.writeSlice(a, start, src)
	for i, v := range src {
		ops.write(b, start+uint64(i)*size, v)
	}
	got := make([]T, n)
	ops.readSlice(a, start, got)
	if n == 0 && a.FootprintBytes() != 0 {
		t.Fatalf("start %#x: an empty slice access allocated frames", start)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("start %#x n %d: slice read [%d] = %#x, want %#x", start, n, i, got[i], src[i])
		}
		if w := ops.read(b, start+uint64(i)*size); w != src[i] {
			t.Fatalf("start %#x n %d: scalar read [%d] = %#x, want %#x", start, n, i, w, src[i])
		}
	}
	lo := max(start, 8) - 8
	hi := start + uint64(n)*size + 8
	ab, bb := make([]byte, hi-lo), make([]byte, hi-lo)
	a.Read(lo, ab)
	b.Read(lo, bb)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("start %#x n %d: slice and scalar writes left different bytes", start, n)
	}
}

// TestSliceOpsMatchScalar proves each typed slice accessor moves exactly
// the bytes the scalar loop would, on the bulk and on the portable path:
// runs that start on, before and across a frame boundary, unaligned runs,
// runs that end exactly on a frame boundary, and empty slices.
func TestSliceOpsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Start addresses that place elements on, before, and across the
	// frame boundary, plus odd (unaligned) ones.
	starts := []uint64{0, 3, frameBytes - 9, frameBytes - 8, frameBytes - 7,
		frameBytes - 4, frameBytes - 2, frameBytes - 1, 5 * frameBytes, 123457}
	const n = 300
	widths := []struct {
		name  string
		size  uint64
		check func(t *testing.T, start uint64, n int)
	}{
		{"u16", 2, func(t *testing.T, start uint64, n int) {
			checkSliceOps(t, rng, sliceOps[uint16]{(*Store).WriteU16, (*Store).ReadU16, (*Store).WriteU16Slice, (*Store).ReadU16Slice}, start, n)
		}},
		{"u32", 4, func(t *testing.T, start uint64, n int) {
			checkSliceOps(t, rng, sliceOps[uint32]{(*Store).WriteU32, (*Store).ReadU32, (*Store).WriteU32Slice, (*Store).ReadU32Slice}, start, n)
		}},
		{"u64", 8, func(t *testing.T, start uint64, n int) {
			checkSliceOps(t, rng, sliceOps[uint64]{(*Store).WriteU64, (*Store).ReadU64, (*Store).WriteU64Slice, (*Store).ReadU64Slice}, start, n)
		}},
	}
	for _, start := range starts {
		for _, w := range widths {
			t.Run(w.name, func(t *testing.T) {
				eachSlicePath(t, func(t *testing.T) {
					w.check(t, start, n)
					w.check(t, start, 0)
				})
			})
		}
	}
	for _, w := range widths {
		t.Run(w.name+"-ends-on-frame", func(t *testing.T) {
			eachSlicePath(t, func(t *testing.T) { w.check(t, 2*frameBytes-n*w.size, n) })
		})
	}
}

// TestStraddlingScalarAccessors pins the bounce-buffer fallback for values
// crossing a frame boundary.
func TestStraddlingScalarAccessors(t *testing.T) {
	s := NewStore()
	addrs := []uint64{frameBytes - 1, frameBytes - 2, frameBytes - 3,
		frameBytes - 5, frameBytes - 7, 3*frameBytes - 1}
	for _, a := range addrs {
		s.WriteU16(a, 0xBEEF)
		if v := s.ReadU16(a); v != 0xBEEF {
			t.Fatalf("u16 at %#x = %#x", a, v)
		}
		s.WriteU32(a, 0xDEADBEEF)
		if v := s.ReadU32(a); v != 0xDEADBEEF {
			t.Fatalf("u32 at %#x = %#x", a, v)
		}
		s.WriteU64(a, 0x0123456789ABCDEF)
		if v := s.ReadU64(a); v != 0x0123456789ABCDEF {
			t.Fatalf("u64 at %#x = %#x", a, v)
		}
	}
}

// TestFrameCacheCoherent proves the direct-mapped frame cache cannot serve
// stale frames when many frames alias the same slot.
func TestFrameCacheCoherent(t *testing.T) {
	s := NewStore()
	// 2*frameCacheSlots frames: every slot has two aliasing frames.
	for i := uint64(0); i < 2*frameCacheSlots; i++ {
		s.WriteU32(i*frameBytes, uint32(i))
	}
	for i := uint64(0); i < 2*frameCacheSlots; i++ {
		if v := s.ReadU32(i * frameBytes); v != uint32(i) {
			t.Fatalf("frame %d = %d", i, v)
		}
	}
}

// TestScalarAccessorsZeroAllocs pins the zero-allocation contract of the
// data path once frames exist.
func TestScalarAccessorsZeroAllocs(t *testing.T) {
	s := NewStore()
	s.WriteU64(0, 1) // allocate the frame
	if n := testing.AllocsPerRun(100, func() {
		s.WriteU32(16, 42)
		_ = s.ReadU32(16)
		_ = s.ReadU16(20)
		_ = s.ReadU64(24)
	}); n != 0 {
		t.Fatalf("scalar accessors allocate %v times per op", n)
	}
}

// TestBulkOpsZeroAllocs pins the zero-allocation contract of the six
// typed slice accessors and Move, on both slice paths, once their frames
// exist: each span crosses a frame boundary, and the moves go both ways.
func TestBulkOpsZeroAllocs(t *testing.T) {
	eachSlicePath(t, func(t *testing.T) {
		s := NewStore()
		s.Fill(0, 4*frameBytes, 0x5A) // allocate the frames
		u16, u32, u64 := make([]uint16, 700), make([]uint32, 700), make([]uint64, 700)
		if n := testing.AllocsPerRun(100, func() {
			s.ReadU16Slice(frameBytes-701, u16)
			s.WriteU16Slice(frameBytes-3, u16)
			s.ReadU32Slice(2*frameBytes-1001, u32)
			s.WriteU32Slice(2*frameBytes-5, u32)
			s.ReadU64Slice(3*frameBytes-2003, u64)
			s.WriteU64Slice(3*frameBytes-9, u64)
			s.Move(frameBytes+17, 100, frameBytes+300)
			s.Move(100, frameBytes+17, frameBytes+300)
		}); n != 0 {
			t.Fatalf("bulk ops allocate %v times per run", n)
		}
	})
}

func BenchmarkStoreReadU32(b *testing.B) {
	s := NewStore()
	s.WriteU32(0, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ReadU32(uint64(i%1024) * 4)
	}
}

func BenchmarkStoreReadU32SliceVsScalar(b *testing.B) {
	s := NewStore()
	buf := make([]uint32, 4096)
	s.WriteU32Slice(0, buf)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = s.ReadU32(uint64(j) * 4)
			}
		}
	})
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ReadU32Slice(0, buf)
		}
	})
}
