package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"activepages/internal/sim"
)

// Track identifiers: every trace event lands on one of a small set of
// per-machine tracks ("threads" in the Chrome trace model). The machine
// wiring (radram.Machine.EnableTracing) follows these conventions, and the
// Chrome exporter names the tracks from them.
const (
	// TIDCPU is the processor timeline: compute intervals, Active-Page
	// waits, mediation service, dispatches.
	TIDCPU int32 = 0
	// TIDMem is the memory-hierarchy timeline: L1-miss fills and uncached
	// accesses, with cache-miss instants.
	TIDMem int32 = 1
	// TIDBus is the memory-bus timeline: one span per transfer.
	TIDBus int32 = 2
	// TIDDRAM is the DRAM-device timeline: row hit/miss access spans.
	TIDDRAM int32 = 3
	// TIDPageBase + page index is an Active Page's logic timeline: one span
	// per activation, from dispatch completion to results visible.
	TIDPageBase int32 = 100
)

// Fleet-router track identifiers. Like the wall tracks (TIDWall*), these
// carry wall-clock time; they live on the router's process in a spliced
// end-to-end trace, below the shard's wall band, and their names carry a
// "(router)" marker so a viewer can tell the routing hop from the shard's
// own lifecycle.
const (
	// TIDRouterLifecycle is the router's submission timeline: receive, ring
	// lookup, relay of the shard's answer.
	TIDRouterLifecycle int32 = 80
	// TIDRouterAttempts is the per-replica attempt timeline: one span per
	// backend tried in ring preference order, with retry instants between
	// failovers.
	TIDRouterAttempts int32 = 81
)

// Trace event phases (a subset of the Chrome trace_event phases).
const (
	// PhaseSpan is a complete event with a start and a duration ("X").
	PhaseSpan byte = 'X'
	// PhaseInstant is a point event ("i").
	PhaseInstant byte = 'i'
)

// TraceEvent is one recorded simulated-time event.
type TraceEvent struct {
	Name  string
	Cat   string
	Ph    byte
	TID   int32
	Start sim.Time
	Dur   sim.Duration
	// Arg is an optional numeric argument (bytes moved, page index, ...),
	// emitted only when HasArg is set.
	Arg    int64
	HasArg bool
}

// Tracer is a low-overhead simulated-time trace sink: a bounded ring of
// events that keeps the most recent writes once full. Components emit into
// it through nil-guarded hooks installed at wiring time, so a machine built
// without tracing pays nothing — a nil *Tracer ignores every emission,
// mirroring the Registry's nil-safety contract.
//
// The ring grows on demand up to its capacity, and event names are static
// strings, so a full ring emits without allocating; the simulation's
// timing and statistics are never read or written by the tracer, so a
// traced run is observationally identical to an untraced one.
type Tracer struct {
	events ring[TraceEvent]
	pid    int64
	// procName labels this tracer's machine in multi-machine trace files.
	procName string
	// dropped counts ring overwrites — every event the full ring discarded
	// to make room — and is stamped into Chrome exports.
	dropped uint64
}

// DefaultTraceEvents is the default ring capacity: enough to hold the tail
// of any benchmark at quick scale without unbounded memory.
const DefaultTraceEvents = 1 << 20

// NewTracer returns a tracer retaining at most capacity events; capacity
// values < 1 use DefaultTraceEvents. Memory grows with the events emitted,
// not with the capacity.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{events: ring[TraceEvent]{limit: capacity}, pid: 1}
}

// SetProcess labels the tracer's events with a process id and name, so
// several machines' tracers can share one trace file (e.g. conventional
// pid 1, RADram pid 2). A nil tracer ignores it.
func (t *Tracer) SetProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.pid = int64(pid)
	t.procName = name
}

// Span records a complete event of duration dur starting at start. A nil
// tracer ignores it.
func (t *Tracer) Span(tid int32, cat, name string, start sim.Time, dur sim.Duration) {
	if t == nil {
		return
	}
	t.emit(TraceEvent{Name: name, Cat: cat, Ph: PhaseSpan, TID: tid, Start: start, Dur: dur})
}

// SpanArg is Span with a numeric argument attached.
func (t *Tracer) SpanArg(tid int32, cat, name string, start sim.Time, dur sim.Duration, arg int64) {
	if t == nil {
		return
	}
	t.emit(TraceEvent{Name: name, Cat: cat, Ph: PhaseSpan, TID: tid, Start: start, Dur: dur, Arg: arg, HasArg: true})
}

// Instant records a point event at time at. A nil tracer ignores it.
func (t *Tracer) Instant(tid int32, cat, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.emit(TraceEvent{Name: name, Cat: cat, Ph: PhaseInstant, TID: tid, Start: at})
}

func (t *Tracer) emit(ev TraceEvent) {
	if t.events.push(ev) {
		t.dropped++
	}
}

// Len reports how many events are retained (at most the capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events.buf)
}

// Dropped reports how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in emission order (oldest first). The
// returned slice is freshly allocated; a nil tracer yields none.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	return t.events.items()
}

// writeTS writes a picosecond time as a microsecond decimal (the Chrome
// trace_event time unit) with exact integer arithmetic, so output is
// deterministic across platforms.
func writeTS(w *bufio.Writer, t sim.Time) {
	fmt.Fprintf(w, "%d.%06d", uint64(t)/1_000_000, uint64(t)%1_000_000)
}

// trackName names the conventional tracks for the Chrome exporter.
func trackName(tid int32) string {
	switch tid {
	case TIDCPU:
		return "cpu"
	case TIDMem:
		return "mem"
	case TIDBus:
		return "bus"
	case TIDDRAM:
		return "dram"
	case TIDWallLifecycle:
		return "lifecycle (wall)"
	case TIDWallPoints:
		return "points (wall)"
	case TIDWallMeasures:
		return "measures (wall)"
	case TIDRouterLifecycle:
		return "submit (router)"
	case TIDRouterAttempts:
		return "attempts (router)"
	}
	if tid >= TIDPageBase {
		return "page " + strconv.Itoa(int(tid-TIDPageBase))
	}
	return "track " + strconv.Itoa(int(tid))
}

// chromeEncoder serializes tracers into the traceEvents array of one
// Chrome trace_event document, tracking whether a separating comma is due.
type chromeEncoder struct {
	bw    *bufio.Writer
	first bool
}

func (e *chromeEncoder) comma() {
	if !e.first {
		e.bw.WriteString(",\n")
	} else {
		e.bw.WriteString("\n")
	}
	e.first = false
}

// writeTracer emits one tracer's process metadata, thread names, and
// events. shift is added to every timestamp — splicing one tracer's
// timeline into a document whose epoch differs uses a negative shift —
// and shifted times clamp at zero, mirroring the wall tracer's own
// pre-epoch clamp.
func (e *chromeEncoder) writeTracer(t *Tracer, fallbackPid int64, shift int64) {
	pid := t.pid
	if pid == 0 {
		pid = fallbackPid
	}
	ts := func(v sim.Time) sim.Time {
		s := int64(v) + shift
		if s < 0 {
			s = 0
		}
		return sim.Time(s)
	}
	if t.procName != "" {
		e.comma()
		fmt.Fprintf(e.bw, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
			pid, strconv.Quote(t.procName))
	}
	if d := t.Dropped(); d > 0 {
		// Make ring overflow visible inside the trace itself: viewers
		// show unknown metadata records in the event list, and tooling
		// can grep for the name.
		e.comma()
		fmt.Fprintf(e.bw, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"trace_dropped_events\",\"args\":{\"dropped\":%d}}",
			pid, d)
	}
	events := t.Events()
	named := make(map[int32]bool)
	for _, ev := range events {
		if !named[ev.TID] {
			named[ev.TID] = true
			e.comma()
			fmt.Fprintf(e.bw, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
				pid, ev.TID, strconv.Quote(trackName(ev.TID)))
		}
		e.comma()
		fmt.Fprintf(e.bw, "{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":",
			strconv.Quote(ev.Name), strconv.Quote(ev.Cat), ev.Ph, pid, ev.TID)
		writeTS(e.bw, ts(ev.Start))
		if ev.Ph == PhaseSpan {
			bw := e.bw
			bw.WriteString(",\"dur\":")
			writeTS(bw, sim.Time(ev.Dur))
		}
		if ev.Ph == PhaseInstant {
			e.bw.WriteString(",\"s\":\"t\"")
		}
		if ev.HasArg {
			fmt.Fprintf(e.bw, ",\"args\":{\"v\":%d}", ev.Arg)
		}
		e.bw.WriteString("}")
	}
}

// WriteChrome renders the tracers' retained events as one Chrome
// trace_event JSON document (the format chrome://tracing and Perfetto
// open directly). Each tracer becomes one process, each track one named
// thread; events keep emission order within a tracer.
func WriteChrome(w io.Writer, tracers ...*Tracer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	enc := &chromeEncoder{bw: bw, first: true}
	for i, t := range tracers {
		if t == nil {
			continue
		}
		enc.writeTracer(t, int64(i+1), 0)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
