// Live mode: metrics that are safe to read while the measured code is
// still running.
//
// The base registry contract is pull-after-completion — components register
// closures over plain counters they mutate on the simulation hot path, and
// a Snapshot is taken only once the run has finished. That contract is
// wrong for a long-running service: an HTTP scrape arrives *while* workers
// mutate the metrics, so every registered reader must be safe against
// concurrent writers.
//
// Services therefore keep their counters and gauges in sync/atomic values
// (registering their Load methods) and their latencies in a LiveHistogram,
// a Histogram behind one mutex. A registry whose every registration is
// backed by one of those is safe to Snapshot concurrently with metric
// updates; the simulator's per-run registries remain pull-after-completion
// and are snapshotted exactly once, after the run exits, before being
// merged into any live aggregate.
package obs

import (
	"sync"
	"time"

	"activepages/internal/sim"
)

// wallDuration converts a wall-clock duration into the simulated-time unit
// (picoseconds) that histogram buckets and trace timestamps use, so wall
// latencies land in the same log2 buckets and Chrome encoding as every
// simulated duration. Negative durations clamp to zero.
func wallDuration(d time.Duration) sim.Duration {
	return sim.Duration(max(d, 0).Nanoseconds()) * sim.Nanosecond
}

// LiveHistogram is a Histogram of wall-clock durations that is safe to
// observe from many goroutines and to checkpoint while observations are in
// flight: one mutex guards the histogram, and Checkpoint copies it under
// that lock, so a checkpoint never reads a torn bucket/count/sum triple.
// The lock is held for three increments, so service request rates never
// contend on it. The zero value is ready to use, and a nil *LiveHistogram
// ignores every observation, mirroring Histogram's contract.
type LiveHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Observe records one wall-clock duration. Safe for concurrent use; a nil
// histogram ignores it.
func (h *LiveHistogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(wallDuration(d))
	h.mu.Unlock()
}

// Checkpoint captures the histogram's current contents. A nil histogram
// yields the zero checkpoint.
func (h *LiveHistogram) Checkpoint() HistCheckpoint {
	if h == nil {
		return HistCheckpoint{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Checkpoint()
}

// Count reports how many durations have been recorded.
func (h *LiveHistogram) Count() uint64 { return h.Checkpoint().count }
