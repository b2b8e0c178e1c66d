package obs

import (
	"strings"
	"testing"

	"activepages/internal/sim"
)

// TestWriteExpositionGolden pins the exposition rendering byte-for-byte:
// counter vs gauge typing, name sanitization, and the cumulative le=
// reassembly of a histogram's ".h.*" keys.
func TestWriteExpositionGolden(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)                    // bucket 0
	h.Observe(1 * sim.Nanosecond)   // 1000 ps -> bucket 10 (le 1.023 ns)
	h.Observe(1 * sim.Nanosecond)   // same bucket
	h.Observe(900 * sim.Nanosecond) // 9e5 ps -> bucket 20 (le ~1048.575 ns)

	s := Snapshot{
		"conv.bus.reads":       12,
		"conv.elapsed_max":     99,
		"serve.runs_submitted": 3,
	}
	h.Checkpoint().fold(s, "mem.lat")

	var b strings.Builder
	if err := WriteExposition(&b, s); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ap_conv_bus_reads counter
ap_conv_bus_reads 12
# TYPE ap_conv_elapsed_max gauge
ap_conv_elapsed_max 99
# TYPE ap_serve_runs_submitted counter
ap_serve_runs_submitted 3
# TYPE ap_mem_lat_ns histogram
ap_mem_lat_ns_bucket{le="0"} 1
ap_mem_lat_ns_bucket{le="1.023"} 3
ap_mem_lat_ns_bucket{le="1048.575"} 4
ap_mem_lat_ns_bucket{le="+Inf"} 4
ap_mem_lat_ns_sum 902
ap_mem_lat_ns_count 4
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteExpositionOverflowBucket checks the top bucket (values beyond
// 2^63 ps) is reported only through the +Inf sample — never as a
// duplicated le="+Inf" line.
func TestWriteExpositionOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(sim.Duration(1) << 63) // bucket 64
	s := Snapshot{}
	h.Checkpoint().fold(s, "big")

	var b strings.Builder
	if err := WriteExposition(&b, s); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), `le="+Inf"`); n != 1 {
		t.Errorf("want exactly one +Inf bucket line, got %d:\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), `ap_big_ns_bucket{le="+Inf"} 1`) {
		t.Errorf("overflow sample missing from +Inf bucket:\n%s", b.String())
	}
}

// TestWriteExpositionWellFormed checks every emitted line over a realistic
// snapshot is a comment or a "name[{le=...}] value" sample, and that every
// sample's family was TYPE-declared first.
func TestWriteExpositionWellFormed(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(sim.Duration(i) * 7 * sim.Nanosecond)
	}
	s := Snapshot{"a.b-c/d": 1, "x_max": 2, "plain": 3}
	h.Checkpoint().fold(s, "lat")

	var b strings.Builder
	if err := WriteExposition(&b, s); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			declared[f[0]] = true
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("bad sample line: %q", line)
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && declared[base] {
				family = base
			}
		}
		if !declared[family] {
			t.Errorf("sample %q has no TYPE declaration", line)
		}
	}
}

// TestWriteGoExposition checks the process self-metrics render as
// well-formed exposition lines with the expected families present.
func TestWriteGoExposition(t *testing.T) {
	var b strings.Builder
	if err := WriteGoExposition(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"go_memstats_heap_alloc_bytes",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("go exposition missing %q:\n%s", want, b.String())
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("bad sample line: %q", line)
		}
	}
}
