package report

import (
	"io"
	"testing"

	"activepages/internal/obs"
)

// FuzzParseMetrics feeds arbitrary files to the metrics parser, which
// apreport runs on any file it is given. No input may panic it, and an
// accepted snapshot must render as a report, diff and tolerance-check
// against itself and an empty baseline without panicking.
func FuzzParseMetrics(f *testing.F) {
	sample, err := sampleSnapshot().JSON()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		sample,
		[]byte("== Figure 3 ==\npages speedup\n1 2\n\n" + MetricsMarker + "\n" + string(sample) + "\ntrailing log line\n"),
		[]byte("{\n  \"a\": 1,\n  \"b_max\": 2\n}"),
		[]byte("== Figure 3 ==\npages speedup\n1 2\n\n" + MetricsMarker + "\n{\n  \"a\": 7\n}\ntrailing log line\n"),
		[]byte(`{"rad.mem.fill.h.b99":1,"rad.mem.fill.h.count":-1,"rad.proc.compute_ns":-5}`),
		[]byte(""),
		[]byte("no json here"),
		[]byte(MetricsMarker + "\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseMetrics(data)
		if err != nil {
			return
		}
		if _, err := FromGroups(map[string]obs.Snapshot{"fuzz": s}).WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		Diff(s, s, false).WriteTo(io.Discard)
		Diff(nil, s, true).WriteTo(io.Discard)
		if v := OutOfTolerance(s, s, 0); len(v) != 0 {
			t.Fatalf("snapshot out of tolerance with itself: %v", v)
		}
		OutOfTolerance(s, nil, 0)
	})
}
