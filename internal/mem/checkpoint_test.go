package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// cowSpan is the address window the copy-on-write tests write into: five
// frames, of which the checkpointed stores populate the first four, so
// writes land both in shared frames and in frames no checkpoint holds.
const cowSpan = 5 * frameBytes

// model is a store paired with a flat reference copy of its cowSpan window.
type model struct {
	s   *Store
	ref []byte
}

// storeWriter applies one random write to a model: to the store through
// the writer under test, and to the reference by hand.
type storeWriter struct {
	name  string
	apply func(m *model, rng *rand.Rand)
}

// randAddr returns a random address at which n bytes fit in the window.
func randAddr(rng *rand.Rand, n int) uint64 { return uint64(rng.Intn(cowSpan - n + 1)) }

// randLen returns a length up to one and a half frames, so bulk writes
// cross frame boundaries.
func randLen(rng *rand.Rand) int { return rng.Intn(frameBytes*3/2) + 1 }

// storeWriters lists every Store method that writes simulated memory.
var storeWriters = []storeWriter{
	{"SetByte", func(m *model, rng *rand.Rand) {
		a, b := randAddr(rng, 1), byte(rng.Intn(256))
		m.s.SetByte(a, b)
		m.ref[a] = b
	}},
	{"Write", func(m *model, rng *rand.Rand) {
		p := make([]byte, randLen(rng))
		rng.Read(p)
		a := randAddr(rng, len(p))
		m.s.Write(a, p)
		copy(m.ref[a:], p)
	}},
	{"Fill", func(m *model, rng *rand.Rand) {
		n := randLen(rng)
		a, b := randAddr(rng, n), byte(rng.Intn(256))
		m.s.Fill(a, uint64(n), b)
		for i := range m.ref[a : a+uint64(n)] {
			m.ref[a+uint64(i)] = b
		}
	}},
	{"Move", func(m *model, rng *rand.Rand) {
		n := randLen(rng)
		dst, src := randAddr(rng, n), randAddr(rng, n)
		m.s.Move(dst, src, uint64(n))
		copy(m.ref[dst:dst+uint64(n)], m.ref[src:src+uint64(n)])
	}},
	{"WriteU16", func(m *model, rng *rand.Rand) {
		a, v := randAddr(rng, 2), uint16(rng.Uint32())
		m.s.WriteU16(a, v)
		binary.LittleEndian.PutUint16(m.ref[a:], v)
	}},
	{"WriteU32", func(m *model, rng *rand.Rand) {
		a, v := randAddr(rng, 4), rng.Uint32()
		m.s.WriteU32(a, v)
		binary.LittleEndian.PutUint32(m.ref[a:], v)
	}},
	{"WriteU64", func(m *model, rng *rand.Rand) {
		a, v := randAddr(rng, 8), rng.Uint64()
		m.s.WriteU64(a, v)
		binary.LittleEndian.PutUint64(m.ref[a:], v)
	}},
	{"WriteU16Slice", func(m *model, rng *rand.Rand) {
		vs := make([]uint16, randLen(rng)/2+1)
		for i := range vs {
			vs[i] = uint16(rng.Uint32())
		}
		a := randAddr(rng, 2*len(vs))
		m.s.WriteU16Slice(a, vs)
		for i, v := range vs {
			binary.LittleEndian.PutUint16(m.ref[a+2*uint64(i):], v)
		}
	}},
	{"WriteU32Slice", func(m *model, rng *rand.Rand) {
		vs := make([]uint32, randLen(rng)/4+1)
		for i := range vs {
			vs[i] = rng.Uint32()
		}
		a := randAddr(rng, 4*len(vs))
		m.s.WriteU32Slice(a, vs)
		for i, v := range vs {
			binary.LittleEndian.PutUint32(m.ref[a+4*uint64(i):], v)
		}
	}},
	{"WriteU64Slice", func(m *model, rng *rand.Rand) {
		vs := make([]uint64, randLen(rng)/8+1)
		for i := range vs {
			vs[i] = rng.Uint64()
		}
		a := randAddr(rng, 8*len(vs))
		m.s.WriteU64Slice(a, vs)
		for i, v := range vs {
			binary.LittleEndian.PutUint64(m.ref[a+8*uint64(i):], v)
		}
	}},
}

// frozen is a checkpoint with the window contents and footprint its store
// had when it was taken.
type frozen struct {
	ck        Checkpoint
	ref       []byte
	footprint uint64
}

func freeze(m *model) frozen {
	return frozen{m.s.Checkpoint(), bytes.Clone(m.ref), m.s.FootprintBytes()}
}

// branch restores f into a fresh store.
func (f frozen) branch() *model {
	s := NewStore()
	s.Restore(f.ck)
	return &model{s, bytes.Clone(f.ref)}
}

// check requires the store's window to read back exactly the reference.
func (m *model) check(t *testing.T, what string) {
	t.Helper()
	got := make([]byte, cowSpan)
	m.s.Read(0, got)
	if i := firstDiff(got, m.ref); i >= 0 {
		t.Fatalf("%s: byte %#x = %#x, want %#x", what, i, got[i], m.ref[i])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// verify requires a fresh restore of f to report f's footprint and read
// back f's exact bytes.
func (f frozen) verify(t *testing.T, what string) {
	t.Helper()
	m := f.branch()
	if got := m.s.FootprintBytes(); got != f.footprint {
		t.Fatalf("%s: restored footprint %d, want %d", what, got, f.footprint)
	}
	m.check(t, what)
}

// TestCheckpointCopyOnWrite is the store's isolation property. After a
// Checkpoint and a Restore every frame is shared by the source store, the
// checkpoint, a branch restored from it, and a checkpoint of that branch
// (plus a second branch restored from that). Random writes through one
// writer at a time then go to the source and both branches. Each store must
// read back its own writes, and every checkpoint must restore to exactly
// the bytes and footprint it was taken with. A writer that resolved its
// frame through the read path would write into a shared frame and corrupt
// the checkpoints; running one writer per subtest makes it the first to
// write each shared frame, so each writer is checked on its own.
//
// Each writer runs twice: over contents written and scrambled by random
// writes, and over contents mapped (Store.Map) from a prefix of a larger
// buffer at an unaligned address, which the writer under test is the first
// to write, before and after the checkpoints. The mapped buffer must stay
// unchanged as well.
func TestCheckpointCopyOnWrite(t *testing.T) {
	for wi, w := range storeWriters {
		t.Run(w.name, func(t *testing.T) {
			for _, mapped := range []bool{false, true} {
				name := "written"
				if mapped {
					name = "mapped"
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(wi)))
					src := &model{NewStore(), make([]byte, cowSpan)}
					init := make([]byte, 4*frameBytes)
					rng.Read(init)
					initWant := bytes.Clone(init)
					if mapped {
						// Frames 1 and 2 are shared with init, frames 0
						// and 3 hold a partial head and tail.
						p := init[:len(init)-1000]
						src.s.Map(300, p)
						copy(src.ref[300:], p)
						for i := 0; i < 16; i++ {
							w.apply(src, rng)
						}
					} else {
						src.s.Write(0, init)
						copy(src.ref, init)
						for i := 0; i < 32; i++ {
							storeWriters[rng.Intn(len(storeWriters))].apply(src, rng)
						}
					}

					ck := freeze(src)
					br := ck.branch()
					brCk := freeze(br)
					br2 := brCk.branch()
					for i := 0; i < 24; i++ {
						for _, m := range []*model{src, br, br2} {
							w.apply(m, rng)
						}
					}
					src.check(t, "source after its writes")
					br.check(t, "branch after its writes")
					br2.check(t, "branch of a branch checkpoint after its writes")
					ck.verify(t, "source checkpoint")
					brCk.verify(t, "branch checkpoint")
					if !bytes.Equal(init, initWant) {
						t.Fatal("a store write reached the mapped buffer")
					}
				})
			}
		})
	}
}

// TestMoveIntoSharedFrames moves bytes within frames a checkpoint shares,
// with source and destination overlapping inside one frame and across
// frames, in both directions. Each store reads its frames first, so their
// frame-cache slots hold the shared frames when the move starts. Move
// resolves every destination frame through writeFrame, so the stores copy
// a frame before writing it and the checkpoint keeps its bytes; a move
// that wrote through the frame it read would change the checkpoint.
func TestMoveIntoSharedFrames(t *testing.T) {
	moves := []struct{ dst, src, n uint64 }{
		{frameBytes + 101, frameBytes + 100, 1000},
		{frameBytes + 100, frameBytes + 101, 1000},
		{frameBytes/2 + 1, frameBytes / 2, 3 * frameBytes},
		{frameBytes / 2, frameBytes/2 + 7, 3 * frameBytes},
	}
	for i, mv := range moves {
		rng := rand.New(rand.NewSource(int64(i)))
		src := &model{NewStore(), make([]byte, cowSpan)}
		init := make([]byte, 4*frameBytes)
		rng.Read(init)
		src.s.Write(0, init)
		copy(src.ref, init)
		ck := freeze(src)
		br := ck.branch()
		for _, m := range []*model{src, br} {
			m.check(t, "store before the move")
			m.s.Move(mv.dst, mv.src, mv.n)
			copy(m.ref[mv.dst:mv.dst+mv.n], m.ref[mv.src:mv.src+mv.n])
			m.check(t, "store after the move")
		}
		ck.verify(t, "checkpoint after the moves")
	}
}

// TestCheckpointCopiesOnce pins the cost model: reads of a shared frame
// never copy it, and a write copies it once, on the first write.
func TestCheckpointCopiesOnce(t *testing.T) {
	s := NewStore()
	s.Fill(0, 4*frameBytes, 0xAB)
	ck := s.Checkpoint()
	br := NewStore()
	br.Restore(ck)
	shared := &ck.frames[1][0]
	br.ReadU64(frameBytes + 8)
	if &br.readFrame(frameBytes)[0] != shared {
		t.Fatal("a read copied a shared frame")
	}
	br.WriteU32(frameBytes+16, 1)
	owned := &br.readFrame(frameBytes)[0]
	if owned == shared {
		t.Fatal("a write went to the shared frame")
	}
	br.WriteU32(frameBytes+20, 2)
	if &br.readFrame(frameBytes)[0] != owned {
		t.Fatal("a second write copied the frame again")
	}
	if &s.readFrame(frameBytes)[0] != shared {
		t.Fatal("the branch's write copied the source's frame")
	}
}
