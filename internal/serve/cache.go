// Content-addressed run memoization. Every run the daemon executes is a
// pure function of its canonical spec: the simulator is deterministic
// (jobs-1-vs-8 byte-identical output is CI-pinned), so two requests with
// the same normalized (experiment, backend, quick, knobs) tuple produce
// the same output bytes, the same metrics snapshot, and the same
// per-benchmark groups. The memoCache exploits that twice:
//
//   - Completed runs are stored under their spec key with byte-budgeted
//     LRU eviction, so a repeat submission completes at submit time —
//     same artifact bytes, near-zero execute span — without touching the
//     worker pool.
//   - In-flight runs are singleflighted: while a spec's leader run is
//     queued or executing, every duplicate submission attaches to the
//     leader (same run id, same eventual artifacts) instead of queueing
//     its own execution, so N concurrent identical submissions simulate
//     exactly once.
//
// The result store is the only reuse across runs. A cold run branches
// sweep points from its own checkpoint cache, which ends with the run
// (Request.dispatch), so two *distinct* specs that drive the same
// machines — say array with and without the regions table — each simulate
// them, and every artifact of a run depends on its spec alone. Spec keys
// are deliberately conservative: only defaulted knobs are normalized,
// never knobs an experiment happens to ignore.

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"activepages/internal/experiments"
	"activepages/internal/lru"
	"activepages/internal/obs"
)

// CacheResultHeader is set on every submit response to report how the
// result cache disposed of the submission: "hit" (served from the store),
// "dedup" (attached to an in-flight identical run), or "miss" (a cold run
// was queued). The fleet router reads it to attribute its own hit-rate.
const CacheResultHeader = "X-AP-Cache"

// DefaultCacheBudget bounds the result store's host memory. Run artifacts
// are small next to machine checkpoints — rendered tables plus a metrics
// snapshot are tens of kilobytes — so a quarter gigabyte holds thousands
// of distinct specs before LRU eviction engages.
const DefaultCacheBudget = 256 << 20

// SpecKey returns the content address of a run request: a sha256 over the
// canonical spec. Normalization covers defaults only — an empty backend is
// the RADram default and an explicit page size equal to the scaled default
// is the default — so requests that dispatch identically key identically.
// Presentation knobs (regions, l2) are keyed verbatim even for experiments
// that ignore them: over-keying costs a redundant cold run, under-keying
// would serve the wrong artifact. Worker counts are excluded: output is
// pinned independent of the pool width.
func SpecKey(req Request) string {
	pb := req.PageBytes
	if pb == experiments.ScaledPageBytes {
		pb = 0
	}
	bk := req.Backend
	if bk == "" {
		bk = "radram"
	}
	// The canonical bytes are "v1|%s|quick=%t|pb=%d|regions=%t|l2=%t|
	// backend=%s", built without fmt: the router and the shard both key
	// every submission. They must never change, or every cached result
	// would cold-miss (TestSpecKeyNormalization pins two keys).
	var buf [128]byte
	b := append(buf[:0], "v1|"...)
	b = append(b, req.Experiment...)
	b = strconv.AppendBool(append(b, "|quick="...), req.Quick)
	b = strconv.AppendUint(append(b, "|pb="...), pb, 10)
	b = strconv.AppendBool(append(b, "|regions="...), req.Regions)
	b = strconv.AppendBool(append(b, "|l2="...), req.L2)
	b = append(append(b, "|backend="...), bk...)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// cachedRun is one memoized result: exactly the artifacts a completed run
// serves. All fields are written once at store time and never mutated, so
// cache hits share them with the runs they complete.
type cachedRun struct {
	output  []byte
	metrics obs.Snapshot
	groups  map[string]obs.Snapshot
}

// memoCache is the server's run memoization state: the content-addressed
// result store plus the in-flight singleflight index. The in-flight index
// is not lru.Cache.Do: a duplicate submission returns the leader's run id
// at once instead of waiting for its result. One mutex brackets every
// submission's look at both, so a spec is either cached, in flight, or
// cold, never ambiguously two of those.
type memoCache struct {
	mu sync.Mutex
	// inflight maps a spec key to the id of its leader run from the moment
	// the leader is queued until it reaches a terminal state. Duplicate
	// submissions in that window return the leader's id.
	inflight map[string]string
	results  *lru.Cache[string, *cachedRun]
}

func newMemoCache(budget uint64) *memoCache {
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	return &memoCache{inflight: make(map[string]string),
		results: lru.New[string](budget, (*cachedRun).bytes)}
}

// store memoizes one completed run's artifacts. A key already present only
// has its recency refreshed: the artifacts are identical by determinism,
// and the first store wins so concurrent readers never observe a swap.
func (m *memoCache) store(key string, output []byte, metrics obs.Snapshot, groups map[string]obs.Snapshot) {
	if key != "" {
		m.results.Add(key, &cachedRun{output: output, metrics: metrics, groups: groups})
	}
}

// release retires id as the in-flight leader of key when its run reaches a
// terminal state. The id guard keeps a cache-completed run (which was
// never a leader) from unregistering a new cold leader of the same spec.
func (m *memoCache) release(key, id string) {
	if key == "" {
		return
	}
	m.mu.Lock()
	if m.inflight[key] == id {
		delete(m.inflight, key)
	}
	m.mu.Unlock()
}

// bytes approximates one result's host footprint: the output bytes plus
// every snapshot entry's key and value. Map overhead is not modeled; the
// budget is a bound on payload, not allocator truth.
func (r *cachedRun) bytes() uint64 {
	n := uint64(len(r.output)) + snapshotBytes(r.metrics)
	for k, g := range r.groups {
		n += uint64(len(k)) + snapshotBytes(g)
	}
	return n
}

func snapshotBytes(s obs.Snapshot) uint64 {
	n := uint64(0)
	for k := range s {
		n += uint64(len(k)) + 8
	}
	return n
}
