package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"activepages/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Span(TIDCPU, "proc", "compute", 0, sim.Nanosecond)
	tr.SpanArg(TIDBus, "bus", "transfer", 0, sim.Nanosecond, 64)
	tr.Instant(TIDMem, "cache", "miss", 0)
	tr.SetProcess(7, "ghost")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should retain nothing")
	}
	var b strings.Builder
	if err := WriteChrome(&b, tr, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Fatal("nil tracers should still produce a valid document")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	names := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6"}
	for i, n := range names {
		tr.Span(TIDCPU, "t", n, sim.Time(i), 1)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// The ring keeps the most recent 4 events in emission order.
	for i, want := range []string{"e3", "e4", "e5", "e6"} {
		if evs[i].Name != want {
			t.Errorf("event %d = %s, want %s", i, evs[i].Name, want)
		}
		if evs[i].Start != sim.Time(i+3) {
			t.Errorf("event %d start = %d, want %d", i, evs[i].Start, i+3)
		}
	}

	// Before wrapping, Events returns exactly what was emitted.
	small := NewTracer(8)
	small.Instant(TIDMem, "c", "one", 5)
	small.Span(TIDBus, "c", "two", 6, 7)
	if small.Len() != 2 || small.Dropped() != 0 {
		t.Fatalf("Len/Dropped = %d/%d, want 2/0", small.Len(), small.Dropped())
	}
	evs = small.Events()
	if evs[0].Name != "one" || evs[1].Name != "two" {
		t.Fatalf("pre-wrap order wrong: %v", evs)
	}
}

// TestWriteChromeGolden pins the exact Chrome trace_event encoding: the
// format must stay deterministic and loadable, so the expected document is
// spelled out byte for byte.
func TestWriteChromeGolden(t *testing.T) {
	tr := NewTracer(8)
	tr.SetProcess(1, "conventional")
	tr.Span(TIDCPU, "proc", "compute", 0, 1_500_000)
	tr.Instant(TIDMem, "cache", "l1d_miss", 2_000_000)
	tr.SpanArg(TIDBus, "bus", "transfer", 2_000_000, 250_000, 64)

	var b strings.Builder
	if err := WriteChrome(&b, tr); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"name":"process_name","args":{"name":"conventional"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"cpu"}},
{"name":"compute","cat":"proc","ph":"X","pid":1,"tid":0,"ts":0.000000,"dur":1.500000},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"mem"}},
{"name":"l1d_miss","cat":"cache","ph":"i","pid":1,"tid":1,"ts":2.000000,"s":"t"},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"bus"}},
{"name":"transfer","cat":"bus","ph":"X","pid":1,"tid":2,"ts":2.000000,"dur":0.250000,"args":{"v":64}}
]}
`
	if got := b.String(); got != want {
		t.Errorf("Chrome encoding drifted:\n got: %q\nwant: %q", got, want)
	}

	// The document must also be well-formed JSON in the trace_event shape.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []map[string]any
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) != 7 {
		t.Fatalf("document shape wrong: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

func TestWriteChromeMultiProcess(t *testing.T) {
	conv := NewTracer(4)
	conv.SetProcess(1, "conventional")
	conv.Span(TIDCPU, "proc", "compute", 0, 10)
	rad := NewTracer(4)
	rad.SetProcess(2, "radram")
	rad.Span(TIDPageBase+3, "ap", "activate", 5, 20)

	var b strings.Builder
	if err := WriteChrome(&b, conv, rad); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"pid":1`, `"pid":2`, `"name":"radram"`, `"name":"page 3"`} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-process trace missing %s", want)
		}
	}
}

func TestTrackNames(t *testing.T) {
	cases := map[int32]string{
		TIDCPU: "cpu", TIDMem: "mem", TIDBus: "bus", TIDDRAM: "dram",
		TIDPageBase: "page 0", TIDPageBase + 12: "page 12", 42: "track 42",
	}
	for tid, want := range cases {
		if got := trackName(tid); got != want {
			t.Errorf("trackName(%d) = %q, want %q", tid, got, want)
		}
	}
}

// TestTracerReportsDropsInChromeTrace checks ring overflow is visible
// inside the exported trace, not just through the Dropped accessor: a
// tracer that dropped events carries a trace_dropped_events metadata
// record with the count, and one that dropped none carries no record.
func TestTracerReportsDropsInChromeTrace(t *testing.T) {
	const record = `{"ph":"M","pid":1,"name":"trace_dropped_events","args":{"dropped":3}}`
	tr := NewTracer(2)
	var b strings.Builder
	tr.Instant(TIDCPU, "c", "e", 0)
	if err := WriteChrome(&b, tr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "trace_dropped_events") {
		t.Errorf("trace without drops carries a drop record:\n%s", b.String())
	}
	for i := 1; i < 5; i++ {
		tr.Instant(TIDCPU, "c", "e", sim.Time(i))
	}
	b.Reset()
	if err := WriteChrome(&b, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 3 || !strings.Contains(b.String(), record) {
		t.Errorf("Dropped = %d, trace:\n%s\nwant 3 and the record %s", tr.Dropped(), b.String(), record)
	}
}
