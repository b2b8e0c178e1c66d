// Package fleet shards the apserved run-registry daemon: a stateless
// router consistent-hashes each submission's canonical spec key onto a
// fleet of backends, so identical specs always land on the same shard and
// its content-addressed result cache serves every repeat. The router holds
// no run state of its own — any number of router replicas route
// identically from the same backend list — which is what makes the fleet
// horizontally scalable: shards own disjoint slices of the spec space and
// their caches never duplicate entries.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerBackend is how many virtual points each backend contributes to
// the ring. 64 keeps the max/min load imbalance of an FNV-placed ring
// within a few percent for small fleets while the ring stays tiny (a
// 16-shard fleet is 1024 points — one binary search over an int slice).
const vnodesPerBackend = 64

// ring is an immutable consistent-hash ring over backend names, so
// concurrent lookups need no lock. Lookups walk the ring clockwise from
// the key's hash point, yielding each backend once — the preference order
// used for placement and failover.
type ring struct {
	backends []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// hash64 is FNV-1a with a splitmix64 finalizer. Raw FNV over short,
// near-identical strings (backend URLs differing in one digit, vnode
// suffixes "#0".."#63") leaves enough structure in the high bits to skew
// ring ownership several-fold; the finalizer's avalanche restores a
// near-uniform point placement.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing places every backend's virtual nodes. Backend order does not
// matter: placement depends only on the backend names, so routers built
// from permuted backend lists route identically.
func newRing(backends []string) *ring {
	r := &ring{backends: backends}
	for i, b := range backends {
		for v := 0; v < vnodesPerBackend; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", b, v)), i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// order returns every backend, most-preferred first, for the given key:
// the owner is the first ring point at or after the key's hash, and each
// further distinct backend encountered clockwise is the next failover
// target. len(order) == len(backends) always — a router that exhausts the
// list has tried the whole fleet.
func (r *ring) order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.backends))
	seen := make([]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

// owner returns just the most-preferred backend for key.
func (r *ring) owner(key string) string {
	if o := r.order(key); len(o) > 0 {
		return o[0]
	}
	return ""
}
