package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWallTracerEpochMapping pins the clock-domain conversion: a wall
// instant d after the epoch lands at d on the trace timeline (nanosecond
// granularity), and instants before the epoch clamp to zero rather than
// going negative.
func TestWallTracerEpochMapping(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	w := NewWallTracer(epoch)
	w.Span(TIDWallLifecycle, "serve", "queue_wait", epoch.Add(1500*time.Nanosecond), 250*time.Nanosecond)
	w.Span(TIDWallLifecycle, "serve", "early", epoch.Add(-time.Hour), time.Nanosecond)

	evs := w.tr.Events()
	if len(evs) != 2 {
		t.Fatalf("retained %d spans, want 2", len(evs))
	}
	if got := evs[0].Start; got != 1500*1000 { // 1500 ns in picoseconds
		t.Errorf("span start = %d ps, want 1500000", got)
	}
	if got := evs[0].Dur; got != 250*1000 {
		t.Errorf("span dur = %d ps, want 250000", got)
	}
	if got := evs[1].Start; got != 0 {
		t.Errorf("pre-epoch span start = %d, want clamp to 0", got)
	}
}

func TestNilWallTracerIsNoOp(t *testing.T) {
	var w *WallTracer
	now := time.Now()
	w.SetProcess(1, "ghost")
	w.Span(TIDWallLifecycle, "serve", "execute", now, time.Second)
	w.SpanArg(TIDWallPoints, "point", "p", now, time.Second, 3)
	w.Instant(TIDWallLifecycle, "serve", "pickup", now)
	w.Log(now, "submitted", nil)
	if w.Events() != nil || !w.Epoch().IsZero() {
		t.Fatal("nil wall tracer should retain nothing")
	}
	var b strings.Builder
	if err := w.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Fatal("nil wall tracer should still write a valid document")
	}
}

// TestWallTracerEventLogRing checks the structured log keeps the most
// recent entries, oldest first, once it wraps.
func TestWallTracerEventLogRing(t *testing.T) {
	epoch := time.Unix(0, 0)
	w := NewWallTracer(epoch)
	w.log.limit = 4
	for i := 0; i < 7; i++ {
		w.Log(epoch.Add(time.Duration(i)*time.Second), fmt.Sprintf("m%d", i),
			map[string]string{"i": fmt.Sprint(i)})
	}
	evs := w.Events()
	if len(evs) != 4 {
		t.Fatalf("log kept %d entries, want 4", len(evs))
	}
	for i, want := range []string{"m3", "m4", "m5", "m6"} {
		if evs[i].Msg != want {
			t.Errorf("entry %d = %q, want %q", i, evs[i].Msg, want)
		}
	}
	if evs[0].Attrs["i"] != "3" {
		t.Errorf("attrs not retained: %v", evs[0].Attrs)
	}

	// Pre-wrap, the log returns exactly what was appended.
	small := NewWallTracer(epoch)
	small.Log(epoch, "only", nil)
	if evs := small.Events(); len(evs) != 1 || evs[0].Msg != "only" {
		t.Fatalf("pre-wrap log wrong: %v", evs)
	}
}

// TestWallTracerConcurrentExport races emission against export: workers
// emit spans and log entries while other goroutines export the trace and
// read the log. Run under -race, any unsynchronized access fails the build.
func TestWallTracerConcurrentExport(t *testing.T) {
	epoch := time.Now()
	w := NewWallTracer(epoch)
	w.SetProcess(1, "run (wall clock)")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				at := epoch.Add(time.Duration(i) * time.Microsecond)
				w.Span(TIDWallPoints, "point", "p", at, time.Microsecond)
				w.Log(at, "point done", nil)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b strings.Builder
				if err := w.WriteChrome(&b); err != nil {
					t.Errorf("WriteChrome: %v", err)
					return
				}
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
					t.Errorf("mid-run export not valid JSON: %v", err)
					return
				}
				w.Events()
			}
		}()
	}
	wg.Wait()
	if w.tr.Len() == 0 {
		t.Fatal("no spans retained after concurrent emission")
	}
}

// TestWallTrackNames pins the wall-clock track labels, which carry the
// clock-domain marker viewers rely on.
func TestWallTrackNames(t *testing.T) {
	cases := map[int32]string{
		TIDWallLifecycle: "lifecycle (wall)",
		TIDWallPoints:    "points (wall)",
		TIDWallMeasures:  "measures (wall)",
	}
	for tid, want := range cases {
		if got := trackName(tid); got != want {
			t.Errorf("trackName(%d) = %q, want %q", tid, got, want)
		}
	}
}
