// Prometheus text-exposition rendering of a metrics snapshot.
//
// The mapping from snapshot keys to the exposition format
// (https://prometheus.io/docs/instrumenting/exposition_formats/) is:
//
//   - every name is sanitized ([^a-zA-Z0-9_] → '_') and prefixed "ap_";
//   - keys ending in GaugeSuffix ("_max") render as TYPE gauge, everything
//     else as TYPE counter — the same split the merge rules use;
//   - the ".h.*" histogram keys of one base name are reassembled into one
//     TYPE histogram family "ap_<base>_ns": cumulative "_bucket" samples
//     with le= bounds in nanoseconds (the log2 bucket upper bounds, +Inf
//     last), plus "_sum" (exact, in nanoseconds) and "_count".
//
// Output is fully deterministic: families and samples are sorted by name,
// values are exact integers (bucket bounds are the only floats), so the
// format is golden-testable and diffable across scrapes.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of a text-exposition response.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// sanitizeMetricName maps a snapshot key to a legal Prometheus metric name.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// leBound renders bucket i's inclusive upper bound in nanoseconds as a
// Prometheus le= label value.
func leBound(i int) string {
	if i >= 64 {
		return "+Inf"
	}
	ns := float64(bucketUpperPS(i)) / 1000
	return strconv.FormatFloat(ns, 'g', -1, 64)
}

// WriteExposition renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). See the package comment of this file for the
// name mapping.
func WriteExposition(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)

	hists, bases, scalars := s.splitHists()
	for _, k := range scalars {
		name := "ap_" + sanitizeMetricName(k)
		typ := "counter"
		if strings.HasSuffix(k, GaugeSuffix) {
			typ = "gauge"
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n%s %d\n", name, typ, name, s[k])
	}

	for _, base := range bases {
		h := hists[base]
		name := "ap_" + sanitizeMetricName(base) + "_ns"
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		var cum int64
		// Bucket 64 (values above 2^63 ps) is covered by the +Inf sample.
		for i := 0; i < 64; i++ {
			c := h.buckets[i]
			if c == 0 {
				continue
			}
			cum += c
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, leBound(i), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(bw, "%s_sum %d\n", name, h.sumNS)
		fmt.Fprintf(bw, "%s_count %d\n", name, h.count)
	}
	return bw.Flush()
}

// WriteGoExposition renders Go process self-metrics — heap, GC, goroutines
// — in the exposition format, for appending to a /metrics response. These
// are point-in-time runtime readings, so unlike WriteExposition the output
// is inherently nondeterministic.
func WriteGoExposition(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bw := bufio.NewWriter(w)
	g := func(name string, typ string, v uint64) {
		if v > math.MaxInt64 {
			v = math.MaxInt64
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n%s %d\n", name, typ, name, v)
	}
	g("go_goroutines", "gauge", uint64(runtime.NumGoroutine()))
	g("go_memstats_heap_alloc_bytes", "gauge", ms.HeapAlloc)
	g("go_memstats_heap_sys_bytes", "gauge", ms.HeapSys)
	g("go_memstats_heap_objects", "gauge", ms.HeapObjects)
	g("go_memstats_alloc_bytes_total", "counter", ms.TotalAlloc)
	g("go_memstats_mallocs_total", "counter", ms.Mallocs)
	g("go_memstats_next_gc_bytes", "gauge", ms.NextGC)
	g("go_gc_cycles_total", "counter", uint64(ms.NumGC))
	g("go_gc_pause_ns_total", "counter", ms.PauseTotalNs)
	return bw.Flush()
}
