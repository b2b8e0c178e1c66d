// Package report folds a run's metrics snapshots — counters, timers, and
// latency histograms — into a bottleneck attribution report: a per-phase
// breakdown of where simulated time went, mirroring the paper's
// processor/memory overlap analysis (Figures 4 and 7-10).
//
// The breakdown reads the processor time ledger (package proc) out of a
// snapshot: compute, memory stall, Active-Page wait (non-overlap), and
// mediation sum to total processor time; bus busy time and Active-Page
// logic busy time attribute the memory side; logic time not covered by a
// processor wait is overlapped computation — the quantity Active Pages
// exist to maximize. Latency histograms embedded in the snapshot render
// as p50/p95/p99/max summaries.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"activepages/internal/obs"
	"activepages/internal/tabler"
)

// Phase is one machine's simulated-time breakdown within a benchmark.
type Phase struct {
	// Machine identifies the configuration: "conv" or "rad".
	Machine string
	// All durations are summed nanoseconds over the runs that contributed.
	TotalNS     int64
	ComputeNS   int64
	MemStallNS  int64
	APWaitNS    int64
	MediationNS int64
	BusBusyNS   int64
	LogicBusyNS int64
	// OverlapNS estimates Active-Page logic time hidden behind processor
	// work: logic busy minus the processor's wait on it, clamped at zero.
	OverlapNS int64
}

// pct renders part as a percentage of the phase total.
func (p Phase) pct(part int64) float64 {
	if p.TotalNS == 0 {
		return 0
	}
	return 100 * float64(part) / float64(p.TotalNS)
}

// Benchmark is one benchmark's attribution: its phases plus the latency
// histograms recorded during its runs.
type Benchmark struct {
	Name   string
	Phases []Phase
	Hists  []obs.HistSummary
}

// Report is a full bottleneck attribution document.
type Report struct {
	Benchmarks []Benchmark
}

// machinePrefixes are the snapshot prefixes one benchmark run produces:
// apps.Measure tags the conventional machine "conv." and the
// Active-Page machine with its backend namespace — the historical "rad."
// for RADram, the backend's own name otherwise.
var machinePrefixes = []string{"conv", "rad", "simdram"}

// BackendOf identifies which Active-Page backend produced a snapshot by
// looking for each machine namespace among the metric keys ("rad." is
// RADram's historical prefix). A snapshot that merged runs from several
// backends reports them joined with "+"; one with no Active-Page rows at
// all returns "".
func BackendOf(s obs.Snapshot) string {
	found := map[string]bool{}
	for k := range s {
		for _, m := range machinePrefixes {
			if m == "conv" {
				continue
			}
			if strings.HasPrefix(k, m+".") || strings.Contains(k, "."+m+".") {
				found[m] = true
			}
		}
	}
	var out []string
	for _, m := range machinePrefixes {
		if found[m] {
			name := m
			if m == "rad" {
				name = "radram"
			}
			out = append(out, name)
		}
	}
	return strings.Join(out, "+")
}

// phaseFrom extracts one machine's phase breakdown from a snapshot.
func phaseFrom(s obs.Snapshot, machine string) Phase {
	p := machine + "."
	ph := Phase{
		Machine:     machine,
		ComputeNS:   s[p+"proc.compute_ns"],
		MemStallNS:  s[p+"proc.mem_stall_ns"],
		APWaitNS:    s[p+"proc.non_overlap_ns"],
		MediationNS: s[p+"proc.mediation_ns"],
		BusBusyNS:   s[p+"mem.bus.busy_ns"],
		LogicBusyNS: s[p+"ap.logic_busy_ns"],
	}
	ph.TotalNS = ph.ComputeNS + ph.MemStallNS + ph.APWaitNS + ph.MediationNS
	ph.OverlapNS = max(0, ph.LogicBusyNS-ph.APWaitNS)
	return ph
}

// FromSnapshot builds one benchmark's attribution from its merged
// snapshot.
func FromSnapshot(name string, s obs.Snapshot) Benchmark {
	b := Benchmark{Name: name, Hists: s.Histograms()}
	for _, m := range machinePrefixes {
		ph := phaseFrom(s, m)
		if ph.TotalNS > 0 {
			b.Phases = append(b.Phases, ph)
		}
	}
	return b
}

// FromGroups builds a report from per-benchmark merged snapshots (the
// run.Collector's groups), sorted by benchmark name.
func FromGroups(groups map[string]obs.Snapshot) *Report {
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	r := &Report{}
	for _, name := range names {
		r.Benchmarks = append(r.Benchmarks, FromSnapshot(name, groups[name]))
	}
	return r
}

// PhaseTable renders the per-phase breakdown of every benchmark: one row
// per machine, with absolute total time and the share of each phase.
func (r *Report) PhaseTable() *tabler.Table {
	t := tabler.New("Bottleneck attribution (per-phase share of processor time)",
		"benchmark", "machine", "total_ms", "compute%", "mem_stall%", "ap_wait%",
		"mediation%", "bus_busy%", "logic_busy%", "overlap%")
	for _, b := range r.Benchmarks {
		for _, p := range b.Phases {
			t.Row(b.Name, p.Machine, float64(p.TotalNS)/1e6,
				p.pct(p.ComputeNS), p.pct(p.MemStallNS), p.pct(p.APWaitNS),
				p.pct(p.MediationNS), p.pct(p.BusBusyNS), p.pct(p.LogicBusyNS),
				p.pct(p.OverlapNS))
		}
	}
	return t
}

// HistTable renders every latency histogram of every benchmark as
// p50/p95/p99/max nanosecond summaries.
func (r *Report) HistTable() *tabler.Table {
	t := tabler.New("Latency histograms (ns; log2 buckets, quantiles are bucket upper bounds)",
		"benchmark", "histogram", "count", "mean", "p50", "p95", "p99", "max")
	for _, b := range r.Benchmarks {
		for _, h := range b.Hists {
			t.Row(b.Name, h.Name, h.Count, h.MeanNS(), h.P50, h.P95, h.P99, h.Max)
		}
	}
	return t
}

// WriteTo renders the full report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	r.PhaseTable().WriteTo(&b)
	b.WriteString("\n")
	r.HistTable().WriteTo(&b)
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// MetricsMarker is the line apbench prints before its machine-readable
// metrics snapshot; ParseMetrics uses it to find the JSON inside full
// apbench output.
const MetricsMarker = "##### metrics (json) #####"

// ParseMetrics reads a metrics snapshot from data, which may be either a
// raw snapshot JSON object or full apbench stdout containing one after
// MetricsMarker. It is the round-trip inverse of obs.Snapshot.JSON.
func ParseMetrics(data []byte) (obs.Snapshot, error) {
	if i := bytes.LastIndex(data, []byte(MetricsMarker)); i >= 0 {
		data = data[i+len(MetricsMarker):]
	}
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		return nil, fmt.Errorf("report: no metrics JSON found")
	}
	// The snapshot object starts at the first '{'; anything after its
	// matching close brace (trailing log lines) is ignored by Decode.
	if i := bytes.IndexByte(data, '{'); i > 0 {
		data = data[i:]
	}
	var s obs.Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("report: parsing metrics JSON: %w", err)
	}
	return s, nil
}

// Violation is one metric whose change between two snapshots exceeds a
// tolerance.
type Violation struct {
	Metric   string
	Old, New int64
	// Pct is the relative change in percent; +Inf when the baseline value
	// was zero.
	Pct float64
}

// String renders the violation for a CI log.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %d -> %d (%+.2f%%)", v.Metric, v.Old, v.New, v.Pct)
}

// OutOfTolerance compares new against the baseline old and returns every
// baseline metric whose relative change exceeds tolPct percent, sorted by
// metric name. The check is baseline-driven: a metric present only in new
// (an added instrument) is not a regression and is ignored, while a
// baseline metric missing from new counts as having gone to zero. tolPct 0
// demands exact equality on every baseline metric — simulated metrics are
// deterministic, so a trajectory file can be gated exactly.
func OutOfTolerance(old, new obs.Snapshot, tolPct float64) []Violation {
	names := make([]string, 0, len(old))
	for k := range old {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []Violation
	for _, k := range names {
		o, n := old[k], new[k]
		if o == n {
			continue
		}
		pct := math.Inf(1)
		if o != 0 {
			pct = 100 * float64(n-o) / math.Abs(float64(o))
		}
		if math.Abs(pct) > tolPct {
			out = append(out, Violation{Metric: k, Old: o, New: n, Pct: pct})
		}
	}
	return out
}

// Diff renders a per-metric comparison of two snapshots: every key of
// either snapshot with its old and new values and the delta. When onlyDiff
// is set, unchanged metrics are omitted.
func Diff(old, new obs.Snapshot, onlyDiff bool) *tabler.Table {
	keys := make(map[string]bool, len(old)+len(new))
	for k := range old {
		keys[k] = true
	}
	for k := range new {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	t := tabler.New("Metrics diff", "metric", "old", "new", "delta", "delta%")
	for _, k := range names {
		o, n := old[k], new[k]
		if onlyDiff && o == n {
			continue
		}
		var pct string
		switch {
		case o == 0 && n == 0:
			pct = "0"
		case o == 0:
			pct = "new"
		default:
			pct = fmt.Sprintf("%+.2f", 100*float64(n-o)/float64(o))
		}
		t.Row(k, o, n, n-o, pct)
	}
	return t
}
