package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// FuzzSpliceChrome splices a router-style wall trace into arbitrary base
// documents. No base may panic the splice, and a base that is valid JSON
// and accepted must splice into valid JSON.
func FuzzSpliceChrome(f *testing.F) {
	epoch := time.Unix(0, 0)
	var empty, shard, simDoc strings.Builder
	WriteChrome(&empty)
	sw := NewWallTracer(epoch)
	sw.SetProcess(1, "b0-r000001 (wall clock)")
	sw.Span(TIDWallLifecycle, "serve", "execute", epoch.Add(time.Millisecond), 5*time.Millisecond)
	sw.WriteChrome(&shard)
	tr := NewTracer(8)
	tr.SetProcess(1, "conventional")
	tr.SpanArg(TIDBus, "bus", "transfer", 2_000_000, 250_000, 64)
	WriteChrome(&simDoc, tr)
	for _, seed := range []string{
		empty.String(), shard.String(), simDoc.String(),
		`{"traceEvents":[]}`, `{"traceEvents":[1]}`, `{"a":[{}]}`,
		"]}", "not a trace", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, base []byte) {
		w := NewWallTracer(epoch)
		w.SetProcess(100, "aprouted (router)")
		w.Span(TIDRouterLifecycle, "router", "ring_lookup", epoch, time.Microsecond)
		w.SpanArg(TIDRouterAttempts, "router", "attempt b0", epoch, time.Millisecond, 1)
		w.Instant(TIDRouterAttempts, "router", "retry", epoch)
		var out bytes.Buffer
		if err := w.SpliceChrome(&out, base, -time.Millisecond); err != nil {
			return
		}
		if json.Valid(base) && !json.Valid(out.Bytes()) {
			t.Fatalf("valid base %q spliced into invalid JSON:\n%s", base, out.Bytes())
		}
	})
}
