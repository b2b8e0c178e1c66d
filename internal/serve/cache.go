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
// The run cache sits above the checkpoint cache (run.CheckpointCache):
// two *distinct* specs that drive the same machines — say array with and
// without the regions table — still share machine state one layer down.
// Spec keys are deliberately conservative: only defaulted knobs are
// normalized, never knobs an experiment happens to ignore.

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"activepages/internal/experiments"
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
	sum := sha256.Sum256(fmt.Appendf(nil, "v1|%s|quick=%t|pb=%d|regions=%t|l2=%t|backend=%s",
		req.Experiment, req.Quick, pb, req.Regions, req.L2, bk))
	return hex.EncodeToString(sum[:])
}

// cachedRun is one memoized result: exactly the artifacts a completed run
// serves. All fields are written once at store time and never mutated, so
// cache hits share them with the runs they complete.
type cachedRun struct {
	output  []byte
	metrics obs.Snapshot
	groups  map[string]obs.Snapshot
	bytes   uint64
	stamp   uint64
}

// memoCache is the server's run memoization state: the content-addressed
// result store plus the in-flight singleflight index. One mutex guards
// both so a submission observes them consistently — a spec is either
// cached, in flight, or cold, never ambiguously two of those.
type memoCache struct {
	mu      sync.Mutex
	budget  uint64
	total   uint64
	stamp   uint64
	entries map[string]*cachedRun
	// inflight maps a spec key to the id of its leader run from the moment
	// the leader is queued until it reaches a terminal state. Duplicate
	// submissions in that window return the leader's id.
	inflight map[string]string
}

func newMemoCache(budget uint64) *memoCache {
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	return &memoCache{budget: budget,
		entries: make(map[string]*cachedRun), inflight: make(map[string]string)}
}

// lookupLocked returns the cached result for key, bumping its LRU stamp.
// Callers hold m.mu.
func (m *memoCache) lookupLocked(key string) *cachedRun {
	e := m.entries[key]
	if e != nil {
		m.stamp++
		e.stamp = m.stamp
	}
	return e
}

// store memoizes one completed run's artifacts and evicts least-recently-
// used entries beyond the byte budget, returning how many were evicted. A
// key already present only has its recency refreshed: the artifacts are
// identical by determinism, and the first store wins so concurrent readers
// never observe a swap.
func (m *memoCache) store(key string, output []byte, metrics obs.Snapshot, groups map[string]obs.Snapshot) int {
	if key == "" {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stamp++
	if e, ok := m.entries[key]; ok {
		e.stamp = m.stamp
		return 0
	}
	e := &cachedRun{
		output:  output,
		metrics: metrics,
		groups:  groups,
		bytes:   artifactBytes(output, metrics, groups),
		stamp:   m.stamp,
	}
	m.entries[key] = e
	m.total += e.bytes
	evicted := 0
	for m.total > m.budget {
		var victimKey string
		var victim *cachedRun
		for k, c := range m.entries {
			if c == e {
				continue
			}
			if victim == nil || c.stamp < victim.stamp {
				victimKey, victim = k, c
			}
		}
		if victim == nil {
			break
		}
		m.total -= victim.bytes
		delete(m.entries, victimKey)
		evicted++
	}
	return evicted
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

// stats reports the store's entry count and accounted bytes, for the
// cache gauges.
func (m *memoCache) stats() (entries int, bytes uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.total
}

// artifactBytes approximates one result's host footprint: the output
// bytes plus every snapshot entry's key and value. Map overhead is not
// modeled; the budget is a bound on payload, not allocator truth.
func artifactBytes(output []byte, metrics obs.Snapshot, groups map[string]obs.Snapshot) uint64 {
	n := uint64(len(output)) + snapshotBytes(metrics)
	for k, g := range groups {
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
