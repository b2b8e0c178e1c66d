package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark observed around a call into
// the program: a sweep's experiment, point or measure, a probe, or one
// HTTP request of the load generator.
type span struct {
	Name  string
	Cat   string
	TID   int
	Start time.Time
	Dur   time.Duration
	Args  map[string]any
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing off: every method is a no-op, so untraced runs pay one nil
// check per would-be span.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Chrome trace_event track ids: one per span family, so Perfetto nests
// experiment > point > measure on the sweep track by time containment and
// shows each load-generator connection on its own track.
const (
	tidSweep   = 1
	tidProbe   = 2
	tidLoadGen = 10 // + connection index
	tidMiss    = 20
)

// writeChrome writes every span as a Chrome trace_event "X" event,
// sorted by start, to path.
func (r *recorder) writeChrome(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	fmt.Fprint(w, `{"ph":"M","pid":1,"name":"process_name","args":{"name":"perfbench"}}`)
	for _, s := range spans {
		ev := map[string]any{
			"ph": "X", "pid": 1, "tid": s.TID, "name": s.Name, "cat": s.Cat,
			"ts":  float64(s.Start.Sub(r.epoch)) / 1e3,
			"dur": float64(s.Dur) / 1e3,
		}
		if len(s.Args) > 0 {
			ev["args"] = s.Args
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return fmt.Errorf("trace event %q: %w", s.Name, err)
		}
		fmt.Fprintf(w, ",\n%s", b)
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
