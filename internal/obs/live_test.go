package obs

import (
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activepages/internal/sim"
)

// TestLiveHistogramMatchesHistogram checks a live histogram registers and
// folds into exactly the same snapshot keys as a single-run histogram fed
// the same durations.
func TestLiveHistogramMatchesHistogram(t *testing.T) {
	plain, live := NewHistogram(), &LiveHistogram{}
	rp, rl := New(), New()
	rp.Histogram("lat", plain)
	rl.Histogram("lat", live)
	for i := 0; i < 1000; i++ {
		d := time.Duration(i*i) * time.Nanosecond / 3
		plain.Observe(wallDuration(d))
		live.Observe(d)
	}
	a, b := rp.Snapshot(), rl.Snapshot()
	if len(a) == 0 {
		t.Fatal("plain histogram folded no keys")
	}
	if !maps.Equal(a, b) {
		t.Errorf("live snapshot %v, plain %v", b, a)
	}
}

// TestLiveHistogramConcurrent hammers one histogram from many goroutines
// while snapshotting it, and checks (a) no observation is lost once the
// writers finish and (b) every mid-flight checkpoint is internally
// consistent: its count equals the sum of its buckets. Run under -race this
// is also the data-race gate for the lock.
func TestLiveHistogramConcurrent(t *testing.T) {
	const writers, perWriter = 8, 5000
	h := &LiveHistogram{}

	var torn atomic.Bool
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := h.Checkpoint()
			var n uint64
			for _, b := range c.buckets {
				n += b
			}
			if n != c.count {
				torn.Store(true)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w * i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if torn.Load() {
		t.Fatal("checkpoint observed bucket sum != count")
	}
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("lost observations: count %d, want %d", got, writers*perWriter)
	}
}

// TestLiveCounterGauge covers the atomic counters and gauges services
// register, and concurrent scrapes of them.
func TestLiveCounterGauge(t *testing.T) {
	var c atomic.Uint64
	var g atomic.Int64
	r := New()
	r.Counter("serve.hits", c.Load)
	r.Gauge("serve.depth", g.Load)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				r.Snapshot() // concurrent scrape must be race-free
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s["serve.hits"] != 4000 {
		t.Errorf("counter = %d, want 4000", s["serve.hits"])
	}
	if s["serve.depth_max"] != 0 {
		t.Errorf("gauge = %d, want 0", s["serve.depth_max"])
	}
}

// TestNilLiveHistogram checks the nil contract matches Histogram's.
func TestNilLiveHistogram(t *testing.T) {
	var h *LiveHistogram
	h.Observe(5)
	if h.Count() != 0 {
		t.Error("nil histogram counted an observation")
	}
	r := New()
	r.Histogram("x", h)
	if s := r.Snapshot(); len(s) != 0 {
		t.Errorf("nil live histogram folded keys: %v", s)
	}
}

// TestWallDurationClamps pins the one wall-to-simulated conversion: whole
// nanoseconds become picoseconds, negative durations clamp to zero.
func TestWallDurationClamps(t *testing.T) {
	if got := wallDuration(1500 * time.Nanosecond); got != 1500*sim.Nanosecond {
		t.Errorf("1500ns -> %d ps", got)
	}
	if got := wallDuration(-time.Second); got != 0 {
		t.Errorf("negative duration -> %d ps, want 0", got)
	}
}
