package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// prefixBuffer returns random bytes of which callers map only a prefix:
// the bytes past it are nonzero, as in a buffer served as a prefix view.
func prefixBuffer(rng *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Intn(255)) + 1
	}
	return buf
}

// aliases reports whether frame f's bytes lie inside buf.
func aliases(f, buf []byte) bool {
	fp, bp := uintptr(unsafe.Pointer(&f[0])), uintptr(unsafe.Pointer(&buf[0]))
	return fp >= bp && fp < bp+uintptr(len(buf))
}

// TestMapPartialFramesArePrivate maps a prefix of a larger buffer at an
// unaligned address, so it covers a head frame in part, two frames whole
// and a tail frame in part. The store must read the prefix's bytes and
// zeros everywhere else, the tail frame included, although the buffer
// goes on past the prefix. Only the whole frames share the buffer's
// memory; writes into every frame leave the buffer unchanged.
func TestMapPartialFramesArePrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const addr = 300
	buf := prefixBuffer(rng, 4*frameBytes)
	want := bytes.Clone(buf)
	p := buf[:3*frameBytes-addr-500] // ends 500 bytes before frame 3
	s := NewStore()
	s.Map(addr, p)
	if got := s.FootprintBytes(); got != 3*frameBytes {
		t.Fatalf("footprint %d, want the 3 frames the prefix touches", got)
	}

	ref := make([]byte, 4*frameBytes)
	copy(ref[addr:], p)
	got := make([]byte, len(ref))
	s.Read(0, got)
	if i := firstDiff(got, ref); i >= 0 {
		t.Fatalf("byte %#x = %#x, want %#x", i, got[i], ref[i])
	}
	for idx, shared := range []bool{false, true, false} {
		if f := s.readFrame(uint64(idx) * frameBytes); aliases(f, buf) != shared {
			t.Errorf("frame %d shares the buffer: %v, want %v", idx, !shared, shared)
		}
	}
	for idx := uint64(0); idx < 4; idx++ {
		s.WriteU64(idx*frameBytes+frameBytes/2, 0)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("a store write reached the mapped buffer")
	}
}

// TestMapReplacesCachedFrame maps over frames the store owns and has in
// its frame cache. Reads must then see the mapped bytes, not the frames
// the cache held, and a write must copy the mapped frame, not land in the
// old frame or the buffer.
func TestMapReplacesCachedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewStore()
	s.Fill(0, 3*frameBytes, 0xAA)
	for idx := uint64(0); idx < 3; idx++ {
		s.WriteU64(idx*frameBytes+8, 1) // owned and cached for writes
	}
	buf := prefixBuffer(rng, 3*frameBytes)
	want := bytes.Clone(buf)
	s.Map(0, buf)
	for idx := uint64(0); idx < 3; idx++ {
		a := idx*frameBytes + 8
		if got, w := s.ReadU64(a), binary.LittleEndian.Uint64(buf[a:]); got != w {
			t.Fatalf("frame %d reads %#x after Map, want the buffer's %#x", idx, got, w)
		}
		s.WriteU64(a, 7)
		if got := s.ReadU64(a); got != 7 {
			t.Fatalf("frame %d reads %#x after a write, want 7", idx, got)
		}
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("a write reached the mapped buffer")
	}
}

// TestMapSlicesMatchWrite maps each width's typed slice at unaligned
// starts, across frame boundaries, on the bulk path (which maps) and on
// the portable path (which writes): each store must hold exactly the bytes
// the matching Write*Slice leaves, and writing over the span afterwards
// must leave the slice unchanged.
func TestMapSlicesMatchWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	starts := []uint64{0, 6, frameBytes - 8, 3*frameBytes + 2}
	const n = 5000 // more than a frame at every width
	check := func(t *testing.T, size uint64, mapSlice, writeSlice func(*Store, uint64), src []byte) {
		for _, start := range starts {
			want := bytes.Clone(src)
			a, b := NewStore(), NewStore()
			mapSlice(a, start)
			writeSlice(b, start)
			lo, hi := max(start, 8)-8, start+n*size+8
			ab, bb := make([]byte, hi-lo), make([]byte, hi-lo)
			a.Read(lo, ab)
			b.Read(lo, bb)
			if !bytes.Equal(ab, bb) {
				t.Fatalf("start %#x: Map and Write left different bytes", start)
			}
			a.Fill(lo, hi-lo, 0xEE)
			if !bytes.Equal(src, want) {
				t.Fatalf("start %#x: a store write reached the mapped slice", start)
			}
		}
	}
	eachSlicePath(t, func(t *testing.T) {
		u16, u32, u64 := make([]uint16, n), make([]uint32, n), make([]uint64, n)
		for i := range u16 {
			u16[i], u32[i], u64[i] = uint16(rng.Uint32()), rng.Uint32(), rng.Uint64()
		}
		check(t, 2, func(s *Store, a uint64) { s.MapU16Slice(a, u16) },
			func(s *Store, a uint64) { s.WriteU16Slice(a, u16) }, bytesOf(u16))
		check(t, 4, func(s *Store, a uint64) { s.MapU32Slice(a, u32) },
			func(s *Store, a uint64) { s.WriteU32Slice(a, u32) }, bytesOf(u32))
		check(t, 8, func(s *Store, a uint64) { s.MapU64Slice(a, u64) },
			func(s *Store, a uint64) { s.WriteU64Slice(a, u64) }, bytesOf(u64))
	})
}

// TestMapConcurrentStores maps one buffer into several stores at once, as
// concurrent sweep workers map one memoized input. Each store writes over
// the mapped span, checkpoints, and writes again in a branch; every store
// must read back its own bytes and the buffer must stay unchanged. Under
// -race a write that reached the shared buffer is also a data race with
// the other stores' reads.
func TestMapConcurrentStores(t *testing.T) {
	buf := prefixBuffer(rand.New(rand.NewSource(4)), 4*frameBytes)
	want := bytes.Clone(buf)
	t.Run("stores", func(t *testing.T) {
		for g := 0; g < 4; g++ {
			t.Run(strconv.Itoa(g), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(g)))
				src := &model{NewStore(), make([]byte, cowSpan)}
				src.s.Map(frameBytes/2, buf)
				copy(src.ref[frameBytes/2:], buf)
				for i := 0; i < 16; i++ {
					storeWriters[rng.Intn(len(storeWriters))].apply(src, rng)
				}
				ck := freeze(src)
				br := ck.branch()
				for i := 0; i < 16; i++ {
					storeWriters[rng.Intn(len(storeWriters))].apply(br, rng)
				}
				src.check(t, "source store")
				br.check(t, "branch store")
				ck.verify(t, "checkpoint")
			})
		}
	})
	if !bytes.Equal(buf, want) {
		t.Fatal("a store write reached the mapped buffer")
	}
}
