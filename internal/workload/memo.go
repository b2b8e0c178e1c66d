package workload

import "sync"

// Memo memoizes a deterministic generator per key. The harness runs every
// benchmark at many problem sizes, twice per size (conventional and RADram)
// and more under sweeps, and the generators here are deterministic — the
// same key always produces the same value. Memoizing an application's
// inputs and reference answers removes their repeated generation from the
// measured wall-clock without touching anything simulated.
//
// Every value a Memo returns is SHARED AND READ-ONLY: callers never mutate
// it. The simulated store maps such a value (mem.Store.Map) and copies a
// frame of it only on the store's first write to that frame. Each
// application package that owns a Memo pins this with a test that compares
// every entry against a fresh generation after running its benchmarks.
//
// Entries are never evicted. Keys are problem sizes: the experiments' fixed
// size axes at the power-of-two page sizes core.Config.Validate accepts (at
// most 512 KiB), so a long-running daemon's memos stay bounded.
//
// The zero Memo is empty and ready to use; it is safe for concurrent use.
type Memo[K comparable, V any] struct {
	m sync.Map // K -> func() V from sync.OnceValue
}

// Get returns key's value, calling gen at most once per key. A Get of a key
// whose generation is under way waits for it; Gets of different keys
// generate at the same time.
func (m *Memo[K, V]) Get(key K, gen func() V) V {
	once, ok := m.m.Load(key)
	if !ok {
		once, _ = m.m.LoadOrStore(key, sync.OnceValue(gen))
	}
	return once.(func() V)()
}

// Range calls f for every key Get has been called with, in no particular
// order, until f returns false. It waits for an entry still generating.
func (m *Memo[K, V]) Range(f func(key K, v V) bool) {
	m.m.Range(func(key, once any) bool {
		return f(key.(K), once.(func() V)())
	})
}
