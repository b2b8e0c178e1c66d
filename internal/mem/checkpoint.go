package mem

// Checkpoint is a copy-on-write snapshot of the store's contents. It
// shares every frame with the store it was taken from and with every store
// restored from it. Readers of a shared frame never copy it; a store copies
// a shared frame on its first write to it (writeFrame), so no later write
// on either side reaches the checkpoint, and one checkpoint can seed any
// number of stores, concurrently. The frame cache is a pure lookup
// structure with no observable state and is not captured.
type Checkpoint struct {
	frames map[uint64][]byte
}

// Bytes reports the checkpoint's host-memory footprint, for cache
// accounting: the frames it keeps alive, whether or not a store still
// shares them.
func (c Checkpoint) Bytes() uint64 { return uint64(len(c.frames)) * frameBytes }

// Checkpoint captures the store contents. It copies only the frame map;
// advancing the write generation turns every frame the store owned into a
// shared one.
func (s *Store) Checkpoint() Checkpoint {
	c := Checkpoint{frames: make(map[uint64][]byte, len(s.frames))}
	for idx, f := range s.frames {
		c.frames[idx] = f.b
	}
	s.gen++
	return c
}

// Restore overwrites the store's contents with a checkpoint's. The store
// adopts the checkpoint's frames as shared (gen 0), so the checkpoint stays
// reusable. The frame cache is cleared: its entries alias the store's
// previous frames.
func (s *Store) Restore(c Checkpoint) {
	s.frames = make(map[uint64]frame, len(c.frames))
	for idx, b := range c.frames {
		s.frames[idx] = frame{b: b}
	}
	s.fcache = [frameCacheSlots]frameCacheEntry{}
}
