package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadSetByte(t *testing.T) {
	s := NewStore()
	s.SetByte(12345, 0xAB)
	if got := s.ByteAt(12345); got != 0xAB {
		t.Fatalf("ByteAt = %#x", got)
	}
	if got := s.ByteAt(12346); got != 0 {
		t.Fatalf("untouched byte = %#x, want 0", got)
	}
}

func TestReadWriteAcrossFrames(t *testing.T) {
	s := NewStore()
	// Straddle a frame boundary.
	base := uint64(frameBytes - 5)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s.Write(base, data)
	got := make([]byte, len(data))
	s.Read(base, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip across frames: got %v want %v", got, data)
	}
}

func TestFixedWidthAccessors(t *testing.T) {
	s := NewStore()
	s.WriteU16(100, 0xBEEF)
	if s.ReadU16(100) != 0xBEEF {
		t.Error("U16 round trip failed")
	}
	s.WriteU32(200, 0xDEADBEEF)
	if s.ReadU32(200) != 0xDEADBEEF {
		t.Error("U32 round trip failed")
	}
	s.WriteU64(300, 0x0123456789ABCDEF)
	if s.ReadU64(300) != 0x0123456789ABCDEF {
		t.Error("U64 round trip failed")
	}
	// Little-endian layout.
	if s.ByteAt(200) != 0xEF {
		t.Errorf("low byte of U32 = %#x, want 0xEF (little-endian)", s.ByteAt(200))
	}
}

func TestMoveNonOverlapping(t *testing.T) {
	s := NewStore()
	src := []byte("hello, active pages")
	s.Write(1000, src)
	s.Move(5000, 1000, uint64(len(src)))
	got := make([]byte, len(src))
	s.Read(5000, got)
	if !bytes.Equal(got, src) {
		t.Fatalf("Move copy mismatch: %q", got)
	}
}

func TestMoveOverlappingForward(t *testing.T) {
	// Insert-style move: shifting a region right by 4 within itself.
	s := NewStore()
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	s.Write(0, data)
	s.Move(4, 0, 100)
	got := make([]byte, 104)
	s.Read(0, got)
	for i := 0; i < 100; i++ {
		if got[i+4] != byte(i) {
			t.Fatalf("overlap forward move corrupted byte %d: %d", i, got[i+4])
		}
	}
}

func TestMoveOverlappingBackward(t *testing.T) {
	// Delete-style move: shifting a region left by 4.
	s := NewStore()
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	s.Write(10, data)
	s.Move(6, 10, 100)
	got := make([]byte, 100)
	s.Read(6, got)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("overlap backward move corrupted byte %d: %d", i, got[i])
		}
	}
}

func TestMoveLargeOverlapCrossesChunks(t *testing.T) {
	s := NewStore()
	n := uint64(200 * 1024) // larger than the 64K bounce chunk
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	s.Write(0, data)
	s.Move(1024, 0, n)
	got := make([]byte, n)
	s.Read(1024, got)
	if !bytes.Equal(got, data) {
		t.Fatal("large overlapping move corrupted data")
	}
}

func TestFill(t *testing.T) {
	s := NewStore()
	s.Fill(uint64(frameBytes)-10, 20, 0x7F)
	for i := uint64(0); i < 20; i++ {
		if s.ByteAt(uint64(frameBytes)-10+i) != 0x7F {
			t.Fatalf("Fill missed offset %d", i)
		}
	}
	if s.ByteAt(uint64(frameBytes)+10) != 0 {
		t.Fatal("Fill overran")
	}
}

func TestFootprint(t *testing.T) {
	s := NewStore()
	if s.FootprintBytes() != 0 {
		t.Fatal("fresh store has footprint")
	}
	s.SetByte(0, 1)
	s.SetByte(1000*frameBytes, 1)
	if got := s.FootprintBytes(); got != 2*frameBytes {
		t.Fatalf("footprint = %d, want %d", got, 2*frameBytes)
	}
}

// Property: Write then Read round-trips arbitrary buffers at arbitrary
// addresses.
func TestWriteReadRoundTripProperty(t *testing.T) {
	s := NewStore()
	f := func(addr uint32, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		s.Write(uint64(addr), data)
		got := make([]byte, len(data))
		s.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Move behaves like Go's copy on an equivalent flat slice.
func TestMoveMatchesCopyProperty(t *testing.T) {
	f := func(seed int64, dstOff, srcOff uint16, n uint16) bool {
		size := uint64(n)%5000 + 1
		d, sr := uint64(dstOff)%8000, uint64(srcOff)%8000
		ref := make([]byte, 16*1024)
		rand.New(rand.NewSource(seed)).Read(ref)

		s := NewStore()
		s.Write(0, ref)
		s.Move(d, sr, size)

		want := make([]byte, len(ref))
		copy(want, ref)
		copy(want[d:d+size], want[sr:sr+size])

		got := make([]byte, len(ref))
		s.Read(0, got)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometry(t *testing.T) {
	g, err := NewGeometry(DefaultPageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if g.PageIndex(0) != 0 || g.PageIndex(DefaultPageBytes) != 1 {
		t.Error("PageIndex wrong")
	}
	if g.PageOffset(DefaultPageBytes+5) != 5 {
		t.Error("PageOffset wrong")
	}
	if g.PagesFor(1) != 1 || g.PagesFor(DefaultPageBytes) != 1 || g.PagesFor(DefaultPageBytes+1) != 2 {
		t.Error("PagesFor wrong")
	}
	if g.PagesFor(0) != 0 {
		t.Error("PagesFor(0) != 0")
	}
}

func TestGeometryRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := NewGeometry(3000); err == nil {
		t.Fatal("expected error for non-power-of-two page size")
	}
	if _, err := NewGeometry(0); err == nil {
		t.Fatal("expected error for zero page size")
	}
}

func TestRange(t *testing.T) {
	r := Range{Addr: 100, Len: 50}
	if r.End() != 150 {
		t.Error("End wrong")
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains wrong")
	}
}

func BenchmarkStoreSequentialWrite(b *testing.B) {
	s := NewStore()
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i%1024)*4096, buf)
	}
}

func BenchmarkStoreMove(b *testing.B) {
	s := NewStore()
	s.Fill(0, 1<<20, 0xAA)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		s.Move(4, 0, 1<<20)
	}
}
