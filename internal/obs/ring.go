package obs

// ring is a bounded FIFO log that keeps the most recent limit entries. It
// grows on demand up to limit, so a ring costs what it records rather than
// its capacity; once full, each push overwrites the oldest entry in place
// without allocating. Not safe for concurrent use.
type ring[T any] struct {
	buf   []T
	limit int
	n     uint64 // entries ever pushed; once full, buf[n%limit] is the oldest
}

// push appends v, overwriting the oldest entry once the ring holds limit
// entries, and reports whether an entry was dropped to make room.
func (r *ring[T]) push(v T) (dropped bool) {
	if len(r.buf) < r.limit {
		if len(r.buf) == cap(r.buf) {
			// Grow geometrically, but never past limit.
			grown := make([]T, len(r.buf), min(max(2*len(r.buf), 8), r.limit))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
		r.n++
		return false
	}
	r.buf[r.n%uint64(r.limit)] = v
	r.n++
	return true
}

// items returns the retained entries oldest first, freshly allocated.
func (r *ring[T]) items() []T {
	head := 0
	if r.n > uint64(len(r.buf)) {
		head = int(r.n % uint64(len(r.buf)))
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}
