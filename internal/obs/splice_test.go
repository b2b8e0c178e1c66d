package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeDoc is the slice of a Chrome trace document the splice tests read
// back: every event with its process, track, name, and microsecond start.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		PID  int64   `json:"pid"`
		TID  int32   `json:"tid"`
		TS   float64 `json:"ts"`
		Args map[string]any
	} `json:"traceEvents"`
}

func parseChrome(t *testing.T, doc string) chromeDoc {
	t.Helper()
	var out chromeDoc
	if err := json.Unmarshal([]byte(doc), &out); err != nil {
		t.Fatalf("spliced document is not valid JSON: %v\n%s", err, doc)
	}
	return out
}

// TestSpliceChromeAlignsEpochs builds a shard-style base trace and a
// router tracer whose epoch is 2ms earlier, splices with the negative
// shift the router would compute, and checks the router's spans land
// wall-aligned on their own process and "(router)" tracks.
func TestSpliceChromeAlignsEpochs(t *testing.T) {
	shardEpoch := time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)
	shard := NewWallTracer(shardEpoch)
	shard.SetProcess(1, "b0-r000001 (wall clock)")
	shard.Span(TIDWallLifecycle, "serve", "execute", shardEpoch.Add(time.Millisecond), 5*time.Millisecond)
	var base strings.Builder
	if err := shard.WriteChrome(&base); err != nil {
		t.Fatal(err)
	}

	routerEpoch := shardEpoch.Add(-2 * time.Millisecond)
	router := NewWallTracer(routerEpoch)
	router.SetProcess(100, "aprouted (router)")
	// ring_lookup starts 1ms after the router epoch = 1ms before the shard
	// epoch: it must clamp to 0 on the spliced timeline.
	router.Span(TIDRouterLifecycle, "router", "ring_lookup", routerEpoch.Add(time.Millisecond), 100*time.Microsecond)
	// The attempt starts 3ms after the router epoch = 1ms after the shard
	// epoch: it must land at exactly 1ms.
	router.Span(TIDRouterAttempts, "router", "attempt b0", routerEpoch.Add(3*time.Millisecond), time.Millisecond)

	var spliced strings.Builder
	shift := routerEpoch.Sub(shardEpoch)
	if err := router.SpliceChrome(&spliced, []byte(base.String()), shift); err != nil {
		t.Fatal(err)
	}
	doc := parseChrome(t, spliced.String())

	byName := map[string]float64{}
	pids := map[string]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			byName[ev.Name] = ev.TS
			pids[ev.Name] = ev.PID
		}
	}
	for _, want := range []string{"execute", "ring_lookup", "attempt b0"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("spliced trace missing span %q:\n%s", want, spliced.String())
		}
	}
	if pids["ring_lookup"] == pids["execute"] {
		t.Errorf("router spans share the shard's process id %d", pids["execute"])
	}
	if ts := byName["execute"]; ts != 1000 { // µs
		t.Errorf("shard execute moved to %v µs, want 1000 (base must be untouched)", ts)
	}
	if ts := byName["attempt b0"]; ts != 1000 {
		t.Errorf("router attempt at %v µs, want 1000 (3ms after router epoch - 2ms shift)", ts)
	}
	if ts := byName["ring_lookup"]; ts != 0 {
		t.Errorf("pre-shard-epoch router span at %v µs, want clamp to 0", ts)
	}
	// The dedicated router track names are in the document.
	for _, want := range []string{"submit (router)", "attempts (router)", "aprouted (router)"} {
		if !strings.Contains(spliced.String(), want) {
			t.Errorf("spliced trace missing %q", want)
		}
	}
}

// TestSpliceChromeEmptyBase splices into a document with no events (the
// degenerate shard trace) without emitting a dangling comma.
func TestSpliceChromeEmptyBase(t *testing.T) {
	var base strings.Builder
	if err := WriteChrome(&base); err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(0, 0)
	w := NewWallTracer(epoch)
	w.Span(TIDRouterLifecycle, "router", "submit", epoch, time.Millisecond)
	var out strings.Builder
	if err := w.SpliceChrome(&out, []byte(base.String()), 0); err != nil {
		t.Fatal(err)
	}
	doc := parseChrome(t, out.String())
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "submit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("spliced empty base lost the router span:\n%s", out.String())
	}
}

// TestSpliceChromeNilAndBadBase pins the fallback contract: a nil tracer
// relays the base unchanged, a non-trace base is refused.
func TestSpliceChromeNilAndBadBase(t *testing.T) {
	var w *WallTracer
	base := "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n"
	var out strings.Builder
	if err := w.SpliceChrome(&out, []byte(base), 0); err != nil {
		t.Fatal(err)
	}
	parseChrome(t, out.String())

	live := NewWallTracer(time.Unix(0, 0))
	if err := live.SpliceChrome(&out, []byte("not a trace"), 0); err == nil {
		t.Fatal("want an error splicing into a non-trace document")
	}
}
