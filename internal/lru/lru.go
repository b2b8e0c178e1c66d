// Package lru is the one bounded cache of the repository: a map that
// charges each entry a caller-defined size against a budget and evicts the
// least recently used entry first. Sweep checkpoints (run.CheckpointCache),
// the daemon's result store and the router's routing traces all live in
// one.
//
// Recency: an entry is touched when it is created and on every Do, Get or
// Add of its key; a fill still running counts as touched when it started.
// Eviction: when a stored entry pushes the charged total over the budget,
// the least recently touched completed entries go first. A fill in flight
// is never evicted, and neither is the entry just stored, even when it
// alone exceeds the budget.
package lru

import (
	"errors"
	"sync"
)

// Cache is a size-budgeted LRU map, safe for concurrent use. Do fills a
// missing key at most once at a time (singleflight); Add stores a value
// outright, first writer wins.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  uint64
	size    func(V) uint64
	total   uint64
	evicted uint64
	entries map[K]*entry[K, V]
	// root is the sentinel of a circular list in recency order: root.next
	// is the most recently touched entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	err        error
	size       uint64
	done       bool          // the value is stored and charged
	ready      chan struct{} // closed when the fill finishes
	prev, next *entry[K, V]
}

// closed is the ready channel of every entry Add stores.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// errFillPanicked is what callers waiting on a fill get when the filling
// caller panicked instead of returning.
var errFillPanicked = errors.New("lru: fill panicked")

// New returns an empty cache that charges size(v) for each value against
// budget.
func New[K comparable, V any](budget uint64, size func(V) uint64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, size: size, entries: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Do returns the value stored under key, calling fill to produce it when
// the key is absent. hit reports whether the value came from the cache,
// including by waiting out a fill of the same key already in flight. A
// fill error reaches every caller waiting on that fill and is not stored,
// so the next Do of the key fills again. So does a fill that panics, which
// only a bug does: its waiters get an error instead of blocking on the key,
// and the panic continues in the filling caller.
func (c *Cache[K, V]) Do(key K, fill func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &entry[K, V]{key: key, err: errFillPanicked, ready: make(chan struct{})}
	c.entries[key] = e
	c.pushFront(e)
	c.mu.Unlock()

	defer func() {
		if e.err != nil {
			c.mu.Lock()
			c.unlink(e)
		} else {
			size := c.size(e.val)
			c.mu.Lock()
			c.store(e, size)
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	e.val, e.err = fill()
	return e.val, false, e.err
}

// Add stores v under key unless the key is present. The first value stored
// under a key wins: a repeat only refreshes the entry's recency and evicts
// nothing.
func (c *Cache[K, V]) Add(key K, v V) {
	size := c.size(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		return
	}
	e := &entry[K, V]{key: key, val: v, ready: closed}
	c.entries[key] = e
	c.pushFront(e)
	c.store(e, size)
}

// Get returns the completed value stored under key. Any entry under key,
// a fill in flight included, counts as touched.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return v, false
	}
	c.touch(e)
	if !e.done {
		return v, false
	}
	return e.val, true
}

// Len reports how many entries the cache holds, fills in flight included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the charged size of the completed entries.
func (c *Cache[K, V]) Bytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Evicted reports how many entries the budget has evicted since New.
func (c *Cache[K, V]) Evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// store charges e, now complete, and evicts from the least recently
// touched end until the total fits the budget, sparing e and fills in
// flight. Callers hold c.mu.
func (c *Cache[K, V]) store(e *entry[K, V], size uint64) {
	e.size, e.done = size, true
	c.total += size
	for v := c.root.prev; c.total > c.budget && v != &c.root; {
		prev := v.prev
		if v.done && v != e {
			c.unlink(v)
			c.total -= v.size
			c.evicted++
		}
		v = prev
	}
}

func (c *Cache[K, V]) touch(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	c.pushFront(e)
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

// unlink removes e from the map and the recency list.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	delete(c.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
}
