package obs

import (
	"fmt"
	"testing"
	"time"

	"activepages/internal/sim"
)

// TestRingGrowsOnDemand checks a fresh tracer holds only what it was sent:
// the default million-event capacity is a bound, not an allocation. The
// ring never grows past its capacity, and a full ring keeps the most
// recent events in emission order and emits without allocating.
func TestRingGrowsOnDemand(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < 3; i++ {
		tr.Instant(TIDCPU, "c", "e", sim.Time(i))
	}
	if tr.Len() != 3 || cap(tr.events.buf) > 8 {
		t.Fatalf("fresh tracer: Len %d, buffer capacity %d; want 3 and at most 8",
			tr.Len(), cap(tr.events.buf))
	}

	small := NewTracer(100)
	for i := 0; i < 250; i++ {
		small.Span(TIDCPU, "c", fmt.Sprint(i), sim.Time(i), 1)
	}
	if cap(small.events.buf) != 100 {
		t.Errorf("full ring buffer capacity = %d, want exactly 100", cap(small.events.buf))
	}
	if small.Len() != 100 || small.Dropped() != 150 {
		t.Errorf("Len/Dropped = %d/%d, want 100/150", small.Len(), small.Dropped())
	}
	for i, ev := range small.Events() {
		if want := fmt.Sprint(150 + i); ev.Name != want {
			t.Fatalf("event %d = %s, want %s", i, ev.Name, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		small.Span(TIDCPU, "c", "full", 0, 1)
	}); allocs != 0 {
		t.Errorf("full ring allocates %v per emission, want 0", allocs)
	}

	w := NewWallTracer(time.Unix(0, 0))
	w.Span(TIDWallLifecycle, "serve", "execute", time.Unix(0, 0), time.Millisecond)
	w.Log(time.Unix(0, 0), "submitted", nil)
	if w.tr.Len() != 1 || len(w.Events()) != 1 || cap(w.tr.events.buf) > 8 || cap(w.log.buf) > 8 {
		t.Errorf("fresh wall tracer: %d spans (buffer %d), %d log entries (buffer %d); want 1 each, buffers at most 8",
			w.tr.Len(), cap(w.tr.events.buf), len(w.Events()), cap(w.log.buf))
	}
}
