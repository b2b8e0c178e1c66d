package cache

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// cacheState is a deep copy of a cache's replacement state and extent.
type cacheState struct {
	lines  []line
	mru    []int32
	lo, hi uint64
	clock  uint64
	stats  Stats
}

func stateOf(c *Cache) cacheState {
	return cacheState{slices.Clone(c.lines), slices.Clone(c.mru), c.lo, c.hi, c.clock, c.Stats}
}

// warmCache returns a full cache with a mix of clean and dirty lines. Every
// call returns the same state.
func warmCache() *Cache {
	c := New(fastCfg())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		c.Access(uint64(rng.Intn(512))*32, rng.Intn(3) == 0)
	}
	return c
}

// lineOf returns the address of the line in way w of set.
func lineOf(c *Cache, set, w uint64) uint64 {
	return c.lineAddr(set, c.lines[set*c.assoc+w].tag)
}

// mruAddr returns the address of the most recently used line of set.
func mruAddr(c *Cache, set uint64) uint64 { return lineOf(c, set, uint64(c.mru[set])) }

// TestCheckpointSharing drives every method that mutates the line or MRU
// arrays on a cache whose arrays a checkpoint shares: one restored from the
// checkpoint, and the cache the checkpoint was taken from. The mutated
// cache must match an unshared twin that did the same operation, while the
// checkpoint — seen through a third cache restored from it — and the other
// sharer must keep the original state. The fresh case drives each method on
// a new cache, which shares its geometry's empty arrays with every other
// new cache: a second new cache must stay empty.
func TestCheckpointSharing(t *testing.T) {
	mutators := []struct {
		name string
		op   func(c *Cache)
	}{
		{"Access", func(c *Cache) {
			c.Access(mruAddr(c, 1), true)                    // MRU hit
			c.Access(lineOf(c, 2, 1-uint64(c.mru[2])), true) // the other way: scan hit
			c.Access(1<<20, false)                           // miss: evicts
		}},
		{"AccessFast", func(c *Cache) { c.AccessFast(mruAddr(c, 3), true) }},
		{"RepeatHit", func(c *Cache) { c.RepeatHit(mruAddr(c, 4), 3, true) }},
		{"StreamRepeat", func(c *Cache) {
			c.StreamRepeat([]uint64{mruAddr(c, 5), mruAddr(c, 6)}, []uint64{2, 1}, []bool{true, false}, 3)
		}},
		{"InvalidateRange", func(c *Cache) { c.InvalidateRange(mruAddr(c, 7), 1) }},
		{"Flush", func(c *Cache) { c.Flush() }},
		{"ApplyFoldShift", func(c *Cache) {
			touched := make([]uint64, (c.nsets+63)/64)
			touched[0] = 0b1011
			c.ApplyFoldShift(touched, 1, 5, 2)
		}},
	}
	for _, m := range mutators {
		t.Run(m.name+"/fresh", func(t *testing.T) {
			target, twin := New(fastCfg()), New(fastCfg())
			twin.own()
			m.op(target)
			m.op(twin)
			if !reflect.DeepEqual(stateOf(target), stateOf(twin)) {
				t.Fatal("mutated new cache differs from its unshared twin")
			}
			other := New(fastCfg())
			if other.clock != 0 || other.lo < other.hi ||
				slices.ContainsFunc(other.lines, func(l line) bool { return l != line{} }) ||
				slices.ContainsFunc(other.mru, func(w int32) bool { return w != 0 }) {
				t.Fatal("a second new cache is not empty after the first was mutated")
			}
		})
		for _, restored := range []bool{true, false} {
			name := m.name + "/source"
			if restored {
				name = m.name + "/restored"
			}
			t.Run(name, func(t *testing.T) {
				src := warmCache()
				orig := stateOf(src)
				ck := src.Checkpoint()
				target, other := src, New(fastCfg())
				if restored {
					target, other = other, target
					target.Restore(ck)
				} else {
					other.Restore(ck)
				}
				twin := warmCache()
				m.op(target)
				m.op(twin)

				if got := stateOf(target); reflect.DeepEqual(got, orig) {
					t.Fatal("the operation changed nothing; the test would prove nothing")
				} else if !reflect.DeepEqual(got, stateOf(twin)) {
					t.Fatal("mutated cache differs from its unshared twin")
				}
				if !reflect.DeepEqual(stateOf(other), orig) {
					t.Fatal("the other cache sharing the checkpoint changed")
				}
				third := New(fastCfg())
				third.Restore(ck)
				if !reflect.DeepEqual(stateOf(third), orig) {
					t.Fatal("the checkpoint changed")
				}
			})
		}
	}
}
