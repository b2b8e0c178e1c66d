// Package mem provides the flat backing store and superpage geometry used by
// the RADram simulator.
//
// The store is the single source of truth for the contents of simulated
// physical memory. Both the processor model and Active-Page functions
// manipulate bytes here; timing is accounted separately by the cache, bus,
// DRAM, and logic models. Frames are allocated lazily so large, sparsely
// touched address spaces stay cheap. Bulk operations copy one frame span at
// a time: Read and Write between a frame and host memory, Move from frame
// to frame, and, on a little-endian host, the typed slice accessors through
// a byte view of the slice. Map places a read-only host buffer without
// copying the frames it covers whole; they are copied on first write.
package mem

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// DefaultPageBytes is the paper's Active-Page superpage size: 512 Kbytes,
// matching one gigabit-DRAM subarray (Itoh et al., Section 3 of the paper).
const DefaultPageBytes = 512 * 1024

// frameBytes is the allocation granule of the backing store. It is smaller
// than a superpage so that barely-touched superpages do not cost 512 KB of
// host memory. Must stay a power of two: the fast-path accessors mask with
// frameMask instead of dividing.
const frameBytes = 16 * 1024

const frameMask = frameBytes - 1

// frameCacheSlots sizes the direct-mapped frame cache. Must be a power of
// two. A handful of slots is enough to keep workloads that interleave a few
// address regions (source/destination streams) off the map lookup.
const frameCacheSlots = 64

type frameCacheEntry struct {
	frame []byte
	idx   uint64
	// gen is the frame's ownership stamp when the entry was filled (see
	// frame.gen); writeFrame trusts the entry only while it equals the
	// store's current generation.
	gen uint64
}

// frame is one allocation granule and its copy-on-write ownership stamp.
type frame struct {
	b []byte
	// gen is the store generation in which this store allocated or copied
	// b. While it equals Store.gen, b is the store's own; any other value
	// means b may be shared with a checkpoint, with other stores restored
	// from one, or with the caller's buffer Map took it from, and must be
	// copied before it is written.
	gen uint64
}

// Store is a sparse, byte-addressable simulated memory.
//
// The zero value is not usable; call NewStore.
type Store struct {
	// frames holds every frame ever touched; frames are never dropped.
	frames map[uint64]frame
	// gen is the current write generation, always >= 1. Checkpoint advances
	// it, which demotes every frame to shared at once; restored and mapped
	// frames carry gen 0 and so start out shared.
	gen uint64
	// fcache is a direct-mapped cache of resolved frames, indexed by the low
	// bits of the frame number, so runs of accesses over a few frames — the
	// overwhelmingly common case on the simulator's load/store path — skip
	// the map lookup. An entry stays valid for reads until Restore replaces
	// the frame map, which clears the cache, or a write replaces the frame
	// with a private copy, or Map with a caller's bytes, either of which
	// refills the entry's slot. frame == nil means the slot is empty.
	fcache [frameCacheSlots]frameCacheEntry
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{frames: make(map[uint64]frame), gen: 1}
}

// readFrame returns the frame containing addr for reading, allocating it
// (zeroed, owned) if needed, and leaves it in its frame-cache slot. A frame
// shared with a checkpoint is returned as is: reads never copy.
func (s *Store) readFrame(addr uint64) []byte {
	idx := addr / frameBytes
	e := &s.fcache[idx&(frameCacheSlots-1)]
	if e.frame == nil || e.idx != idx {
		f, ok := s.frames[idx]
		if !ok {
			f = frame{make([]byte, frameBytes), s.gen}
			s.frames[idx] = f
		}
		*e = frameCacheEntry{f.b, idx, f.gen}
	}
	return e.frame
}

// writeFrame returns the frame containing addr for writing. Every writer
// resolves frames here: a frame the store does not own is replaced by a
// private copy first, so no write reaches a checkpoint. An empty
// frame-cache slot has gen 0, which never equals s.gen, so the fast path
// needs no nil check.
func (s *Store) writeFrame(addr uint64) []byte {
	idx := addr / frameBytes
	e := &s.fcache[idx&(frameCacheSlots-1)]
	if e.idx != idx || e.gen != s.gen {
		s.readFrame(addr) // resolves the frame into e
		if e.gen != s.gen {
			b := append([]byte(nil), e.frame...)
			s.frames[idx] = frame{b, s.gen}
			*e = frameCacheEntry{b, idx, s.gen}
		}
	}
	return e.frame
}

// FootprintBytes reports how much simulated memory has ever been touched.
// Copies made on write replace their frame, so they are not counted.
func (s *Store) FootprintBytes() uint64 { return uint64(len(s.frames)) * frameBytes }

// ByteAt returns the byte at addr.
func (s *Store) ByteAt(addr uint64) byte {
	return s.readFrame(addr)[addr&frameMask]
}

// SetByte stores b at addr.
func (s *Store) SetByte(addr uint64, b byte) {
	s.writeFrame(addr)[addr&frameMask] = b
}

// Read copies len(p) bytes starting at addr into p.
func (s *Store) Read(addr uint64, p []byte) {
	for len(p) > 0 {
		f := s.readFrame(addr)
		off := addr & frameMask
		n := copy(p, f[off:])
		p = p[n:]
		addr += uint64(n)
	}
}

// Write copies p into the store starting at addr.
func (s *Store) Write(addr uint64, p []byte) {
	for len(p) > 0 {
		f := s.writeFrame(addr)
		off := addr & frameMask
		n := copy(f[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// Map places p in the store at addr with Write's result, but shares every
// frame p covers whole instead of copying it. The store adopts those bytes
// of p as a restored frame (gen 0), so its first write to one copies it
// (writeFrame), and neither the store nor any checkpoint of it ever writes
// p. A head or tail frame that p covers only in part is written as Write
// would: p may be a prefix of a larger buffer whose bytes past len(p) are
// not the zeros the rest of that frame must read.
//
// The caller must never change p while a store or a checkpoint may still
// map it; Map is for read-only values, such as the workload memos'.
func (s *Store) Map(addr uint64, p []byte) {
	if off := addr & frameMask; off != 0 {
		n := min(uint64(len(p)), frameBytes-off)
		s.Write(addr, p[:n])
		addr, p = addr+n, p[n:]
	}
	for ; len(p) >= frameBytes; addr, p = addr+frameBytes, p[frameBytes:] {
		idx := addr / frameBytes
		b := p[:frameBytes:frameBytes]
		s.frames[idx] = frame{b: b}
		s.fcache[idx&(frameCacheSlots-1)] = frameCacheEntry{frame: b, idx: idx}
	}
	s.Write(addr, p)
}

// Move copies n bytes from src to dst, handling overlap like copy. It
// copies frame to frame, one span at a time, back to front when dst lies
// inside the source range so that no byte is overwritten before it is read.
// The destination resolves through writeFrame, so a frame shared with a
// checkpoint is copied before the move writes it.
func (s *Store) Move(dst, src uint64, n uint64) {
	if dst == src {
		return
	}
	if dst < src || dst >= src+n {
		for n > 0 {
			doff, soff := dst&frameMask, src&frameMask
			c := min(n, frameBytes-doff, frameBytes-soff)
			copy(s.writeFrame(dst)[doff:doff+c], s.readFrame(src)[soff:])
			dst, src, n = dst+c, src+c, n-c
		}
		return
	}
	for n > 0 {
		dend, send := (dst+n-1)&frameMask+1, (src+n-1)&frameMask+1
		c := min(n, dend, send)
		n -= c
		copy(s.writeFrame(dst + n)[dend-c:dend], s.readFrame(src + n)[send-c:])
	}
}

// Fill sets n bytes starting at addr to b.
func (s *Store) Fill(addr uint64, n uint64, b byte) {
	for n > 0 {
		f := s.writeFrame(addr)
		off := addr & frameMask
		c := min(n, frameBytes-off)
		region := f[off : off+c]
		// Seed one byte, then double the filled prefix with copy; copy is
		// memmove under the hood, so this is O(log c) passes instead of a
		// byte-at-a-time loop.
		region[0] = b
		for filled := uint64(1); filled < c; filled *= 2 {
			copy(region[filled:], region[:filled])
		}
		addr += c
		n -= c
	}
}

// The fixed-width accessors use little-endian byte order, matching the
// simulated ISA. Each decodes directly from the frame slice when the value
// does not straddle a frame boundary — the overwhelmingly common case —
// and falls back to the generic bounce-buffer path when it does.

// ReadU16 loads a 16-bit value from addr.
func (s *Store) ReadU16(addr uint64) uint16 {
	if off := addr & frameMask; off <= frameBytes-2 {
		return binary.LittleEndian.Uint16(s.readFrame(addr)[off:])
	}
	var b [2]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// WriteU16 stores a 16-bit value at addr.
func (s *Store) WriteU16(addr uint64, v uint16) {
	if off := addr & frameMask; off <= frameBytes-2 {
		binary.LittleEndian.PutUint16(s.writeFrame(addr)[off:], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	s.Write(addr, b[:])
}

// ReadU32 loads a 32-bit value from addr.
func (s *Store) ReadU32(addr uint64) uint32 {
	if off := addr & frameMask; off <= frameBytes-4 {
		return binary.LittleEndian.Uint32(s.readFrame(addr)[off:])
	}
	var b [4]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 stores a 32-bit value at addr.
func (s *Store) WriteU32(addr uint64, v uint32) {
	if off := addr & frameMask; off <= frameBytes-4 {
		binary.LittleEndian.PutUint32(s.writeFrame(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.Write(addr, b[:])
}

// ReadU64 loads a 64-bit value from addr.
func (s *Store) ReadU64(addr uint64) uint64 {
	if off := addr & frameMask; off <= frameBytes-8 {
		return binary.LittleEndian.Uint64(s.readFrame(addr)[off:])
	}
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 stores a 64-bit value at addr.
func (s *Store) WriteU64(addr uint64, v uint64) {
	if off := addr & frameMask; off <= frameBytes-8 {
		binary.LittleEndian.PutUint64(s.writeFrame(addr)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

// The typed slice accessors move whole arrays of fixed-width values in one
// call. On a little-endian host a slice already holds the bytes the store
// keeps, so each accessor is one Read, Write or Map of the slice's byte
// view: one copy per frame span, or none for the frames Map shares. On
// other hosts each element goes through the scalar accessor.

// littleEndian reports whether the host's byte order is the store's. Tests
// clear it to run the portable path.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf views vs as its bytes in host order, without copying. It is the
// package's only use of unsafe.
func bytesOf[T uint16 | uint32 | uint64](vs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), uintptr(len(vs))*unsafe.Sizeof(vs[0]))
}

// readSlice loads len(dst) consecutive values starting at addr; read is the
// scalar accessor of T's width.
func readSlice[T uint16 | uint32 | uint64](s *Store, addr uint64, dst []T, read func(*Store, uint64) T) {
	if littleEndian {
		s.Read(addr, bytesOf(dst))
		return
	}
	size := uint64(binary.Size(T(0)))
	for i := range dst {
		dst[i] = read(s, addr+size*uint64(i))
	}
}

// writeSlice stores the values of src consecutively starting at addr; write
// is the scalar accessor of T's width.
func writeSlice[T uint16 | uint32 | uint64](s *Store, addr uint64, src []T, write func(*Store, uint64, T)) {
	if littleEndian {
		s.Write(addr, bytesOf(src))
		return
	}
	size := uint64(binary.Size(T(0)))
	for i, v := range src {
		write(s, addr+size*uint64(i), v)
	}
}

// mapSlice places the values of src consecutively starting at addr: on a
// little-endian host it maps src's bytes (Map), elsewhere it writes them
// through write, the scalar accessor of T's width, since the store's bytes
// are not src's.
func mapSlice[T uint16 | uint32 | uint64](s *Store, addr uint64, src []T, write func(*Store, uint64, T)) {
	if littleEndian {
		s.Map(addr, bytesOf(src))
		return
	}
	writeSlice(s, addr, src, write)
}

// ReadU16Slice loads len(dst) consecutive 16-bit values starting at addr.
func (s *Store) ReadU16Slice(addr uint64, dst []uint16) { readSlice(s, addr, dst, (*Store).ReadU16) }

// WriteU16Slice stores the values of src consecutively starting at addr.
func (s *Store) WriteU16Slice(addr uint64, src []uint16) { writeSlice(s, addr, src, (*Store).WriteU16) }

// ReadU32Slice loads len(dst) consecutive 32-bit values starting at addr.
func (s *Store) ReadU32Slice(addr uint64, dst []uint32) { readSlice(s, addr, dst, (*Store).ReadU32) }

// WriteU32Slice stores the values of src consecutively starting at addr.
func (s *Store) WriteU32Slice(addr uint64, src []uint32) { writeSlice(s, addr, src, (*Store).WriteU32) }

// ReadU64Slice loads len(dst) consecutive 64-bit values starting at addr.
func (s *Store) ReadU64Slice(addr uint64, dst []uint64) { readSlice(s, addr, dst, (*Store).ReadU64) }

// WriteU64Slice stores the values of src consecutively starting at addr.
func (s *Store) WriteU64Slice(addr uint64, src []uint64) { writeSlice(s, addr, src, (*Store).WriteU64) }

// MapU16Slice places the values of src like WriteU16Slice, sharing whole
// frames with src where the host's byte order allows (see Map).
func (s *Store) MapU16Slice(addr uint64, src []uint16) { mapSlice(s, addr, src, (*Store).WriteU16) }

// MapU32Slice places the values of src like WriteU32Slice, sharing whole
// frames with src where the host's byte order allows (see Map).
func (s *Store) MapU32Slice(addr uint64, src []uint32) { mapSlice(s, addr, src, (*Store).WriteU32) }

// MapU64Slice places the values of src like WriteU64Slice, sharing whole
// frames with src where the host's byte order allows (see Map).
func (s *Store) MapU64Slice(addr uint64, src []uint64) { mapSlice(s, addr, src, (*Store).WriteU64) }

// Geometry describes the superpage layout of an address space.
type Geometry struct {
	// PageBytes is the superpage size; must be a power of two.
	PageBytes uint64
}

// NewGeometry validates the page size and returns a geometry.
func NewGeometry(pageBytes uint64) (Geometry, error) {
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: page size %d is not a power of two", pageBytes)
	}
	return Geometry{PageBytes: pageBytes}, nil
}

// PageIndex returns the superpage number containing addr.
func (g Geometry) PageIndex(addr uint64) uint64 { return addr / g.PageBytes }

// PageOffset returns addr's offset within its superpage.
func (g Geometry) PageOffset(addr uint64) uint64 { return addr & (g.PageBytes - 1) }

// PagesFor reports how many superpages are needed to hold n bytes.
func (g Geometry) PagesFor(n uint64) uint64 {
	return (n + g.PageBytes - 1) / g.PageBytes
}

// Range describes a contiguous span of simulated memory.
type Range struct {
	Addr uint64
	Len  uint64
}

// End returns the first address past the range.
func (r Range) End() uint64 { return r.Addr + r.Len }

// Contains reports whether addr falls inside r.
func (r Range) Contains(addr uint64) bool {
	return addr >= r.Addr && addr < r.End()
}
