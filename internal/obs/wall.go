package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"activepages/internal/sim"
)

// Wall-clock track identifiers. The simulator's tracks (TIDCPU..TIDPageBase)
// carry simulated time; these carry wall-clock time measured with time.Now.
// The two clock domains coexist in one Chrome trace file by convention:
// wall-clock tracers are separate processes (WallTracer.SetProcess names
// them with a "(wall)" suffix) and their track names repeat the marker, so
// a viewer never reads a wall span against the simulated timeline.
const (
	// TIDWallLifecycle is a run's lifecycle timeline: queue wait, execute,
	// artifact write.
	TIDWallLifecycle int32 = 90
	// TIDWallPoints is the sweep-point timeline: one span per completed
	// scheduled point.
	TIDWallPoints int32 = 91
	// TIDWallMeasures is the measurement timeline: one span per benchmark
	// measurement, labeled with its checkpoint outcome.
	TIDWallMeasures int32 = 92
)

// WallEvent is one entry of a WallTracer's structured event log: a
// wall-clock timestamped message with optional string attributes.
type WallEvent struct {
	T     time.Time         `json:"t"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DefaultWallEvents bounds a WallTracer's span ring and event log: run
// lifecycles emit a handful of spans per sweep point, so a few thousand
// entries hold any dispatchable experiment. Both rings grow on demand, so
// a tracer that records a few spans costs a few spans.
const DefaultWallEvents = 1 << 13

// WallTracer records wall-clock spans and a structured event log for one
// run's lifecycle, reusing the simulated-time Tracer and Chrome exporter
// underneath: wall timestamps are taken relative to an epoch
// (conventionally the run's submission time) and mapped onto the trace
// timeline at nanosecond granularity, so WriteChrome output opens in
// Perfetto exactly like a simulated-time trace. The event log is a bounded
// ring of the same kind as the span buffer.
//
// Unlike Tracer — which is single-goroutine by design, because the
// simulation is — a WallTracer is safe for concurrent use: a worker
// goroutine emits spans while HTTP handlers export the trace or read the
// event log mid-run. A nil *WallTracer ignores every call, mirroring the
// package's nil-safety contract.
type WallTracer struct {
	mu    sync.Mutex
	epoch time.Time
	tr    *Tracer
	log   ring[WallEvent]
}

// NewWallTracer returns a tracer whose timeline starts at epoch, retaining
// at most DefaultWallEvents spans and DefaultWallEvents log entries.
func NewWallTracer(epoch time.Time) *WallTracer {
	return &WallTracer{epoch: epoch, tr: NewTracer(DefaultWallEvents),
		log: ring[WallEvent]{limit: DefaultWallEvents}}
}

// SetProcess labels the tracer's process in multi-process trace files. The
// name should carry a "(wall)" marker so viewers can tell the clock domain
// apart from simulated-time processes. A nil tracer ignores it.
func (w *WallTracer) SetProcess(pid int, name string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tr.SetProcess(pid, name)
}

// ts maps a wall-clock instant onto the trace timeline. Instants before
// the epoch clamp to zero so a span can never start at a negative time.
func (w *WallTracer) ts(t time.Time) sim.Time {
	return wallDuration(t.Sub(w.epoch))
}

// Span records a complete wall-clock span. A nil tracer ignores it.
func (w *WallTracer) Span(tid int32, cat, name string, start time.Time, d time.Duration) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tr.Span(tid, cat, name, w.ts(start), wallDuration(d))
}

// SpanArg is Span with a numeric argument attached.
func (w *WallTracer) SpanArg(tid int32, cat, name string, start time.Time, d time.Duration, arg int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tr.SpanArg(tid, cat, name, w.ts(start), wallDuration(d), arg)
}

// Instant records a wall-clock point event. A nil tracer ignores it.
func (w *WallTracer) Instant(tid int32, cat, name string, at time.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tr.Instant(tid, cat, name, w.ts(at))
}

// Log appends one structured entry to the event log, keeping the most
// recent entries once the log is full. Attrs may be nil. A nil tracer
// ignores it.
func (w *WallTracer) Log(at time.Time, msg string, attrs map[string]string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.push(WallEvent{T: at, Msg: msg, Attrs: attrs})
}

// Events returns the retained log entries, oldest first. The slice is
// freshly allocated; a nil tracer yields none.
func (w *WallTracer) Events() []WallEvent {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.items()
}

// Epoch returns the wall instant the tracer's timeline starts at. A nil
// tracer's epoch is the zero time.
func (w *WallTracer) Epoch() time.Time {
	if w == nil {
		return time.Time{}
	}
	return w.epoch
}

// SpliceChrome writes base — a complete Chrome trace_event document, as
// produced by WriteChrome or a shard's /trace endpoint — with this
// tracer's events appended as an additional process. shift re-aligns the
// two clock domains: it is added to every spliced timestamp, so a caller
// whose epoch differs from the base document's passes
// thisEpoch.Sub(baseEpoch) and both timelines share one wall origin
// (spliced events from before the base epoch clamp to zero). The export
// holds the tracer's lock, so splicing never tears against concurrent
// emission. A nil tracer relays base unchanged.
func (w *WallTracer) SpliceChrome(out io.Writer, base []byte, shift time.Duration) error {
	trimmed := bytes.TrimRight(base, " \t\r\n")
	if !bytes.HasSuffix(trimmed, []byte("]}")) {
		return fmt.Errorf("obs: splice base does not end a Chrome trace document")
	}
	head := trimmed[:len(trimmed)-2]
	bw := bufio.NewWriter(out)
	bw.Write(head)
	if w != nil {
		// An empty base events array takes no separating comma.
		first := bytes.HasSuffix(bytes.TrimRight(head, " \t\r\n"), []byte("["))
		enc := &chromeEncoder{bw: bw, first: first}
		w.mu.Lock()
		enc.writeTracer(w.tr, 1, shift.Nanoseconds()*int64(sim.Nanosecond))
		w.mu.Unlock()
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteChrome renders the retained spans as a Chrome trace_event JSON
// document, consistent against concurrent emission: the export holds the
// tracer's lock, so a trace fetched mid-run is a clean prefix of the final
// one. A nil tracer writes a valid empty document.
func (w *WallTracer) WriteChrome(out io.Writer) error {
	if w == nil {
		return WriteChrome(out)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WriteChrome(out, w.tr)
}
