package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"activepages/internal/experiments"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// sweepArgs is the sweep workload's apbench invocation: every experiment,
// one worker, with the metrics snapshot the counter gate compares.
func sweepArgs(quick bool) []string {
	args := []string{"-experiment", "all", "-jobs", "1", "-json"}
	if quick {
		args = append(args, "-quick")
	}
	return args
}

// section is one experiment of a sweep as seen on the child's stdout:
// apbench prints "##### <name> #####" before each experiment and the
// metrics marker after the last, and writes each table as soon as it is
// computed, so the gap between two marker lines is that experiment's
// latency. It is kept both as wall time and as the user CPU time the
// child spent on it.
type section struct {
	name      string
	start     time.Time
	wall, cpu time.Duration
}

type sweepResult struct {
	child    childStats
	sections []section
	ok       bool // output matched the references
}

// childStats is when one finished child process ran and what it cost.
type childStats struct {
	start time.Time
	wall  time.Duration
	user  time.Duration // user CPU time of all its threads
	rssMB float64
}

// runChild starts cmd, timestamps each stdout line against the start,
// and waits for it to exit. A nonzero exit is an error.
func runChild(cmd *exec.Cmd, onLine func(line []byte, at time.Duration)) (childStats, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childStats{}, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childStats{}, err
	}
	br := bufio.NewReaderSize(stdout, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 && onLine != nil {
			onLine(line, time.Since(start))
		}
		if rerr != nil {
			break
		}
	}
	werr := cmd.Wait()
	cs := childStats{start: start, wall: time.Since(start)}
	if werr != nil {
		return cs, fmt.Errorf("%s: %w: %s", filepath.Base(cmd.Path), werr, strings.TrimSpace(stderr.String()))
	}
	cs.user, cs.rssMB = cmd.ProcessState.UserTime(), maxRSSMB(cmd.ProcessState)
	return cs, nil
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// clockTicks is Linux's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat.
const clockTicks = 100

// procCPU reads the user and system CPU time all threads of a running
// (or exited but not yet waited for) process have spent so far, to the
// 10 ms resolution /proc gives them.
func procCPU(pid int) (user, system time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; utime and stime are
	// fields 14 and 15, the 12th and 13th after the closing parenthesis.
	var f []string
	if i := bytes.LastIndexByte(b, ')'); i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var t [2]time.Duration
	for i := range t {
		ticks, err := strconv.ParseInt(f[11+i], 10, 64)
		if err != nil {
			return 0, 0, err
		}
		t[i] = time.Duration(ticks) * time.Second / clockTicks
	}
	return t[0], t[1], nil
}

// sweepChild runs one untraced sweep process and checks its output
// against the references; a mismatch is kept in the build directory for
// inspection.
func sweepChild(ctx context.Context, e *env, quick bool, ref sweepRef) (sweepResult, error) {
	var out bytes.Buffer
	type mark struct {
		name    string
		at, cpu time.Duration
	}
	var marks []mark
	var cpuErr error
	cmd := exec.CommandContext(ctx, e.apbench, sweepArgs(quick)...)
	cs, err := runChild(cmd, func(line []byte, at time.Duration) {
		out.Write(line)
		if s := string(line); strings.HasPrefix(s, "##### ") {
			cpu, _, err := procCPU(cmd.Process.Pid)
			if err != nil && cpuErr == nil {
				cpuErr = err
			}
			marks = append(marks, mark{strings.Trim(s, "# \n"), at, cpu})
		}
	})
	if err == nil {
		err = cpuErr
	}
	if err != nil {
		return sweepResult{}, err
	}
	res := sweepResult{child: cs}
	for i := 0; i+1 < len(marks); i++ {
		res.sections = append(res.sections, section{marks[i].name, cs.start.Add(marks[i].at),
			marks[i+1].at - marks[i].at, marks[i+1].cpu - marks[i].cpu})
	}
	tables, metrics, _ := splitSweep(out.Bytes())
	res.ok = bytes.Equal(tables, ref.tables) && bytes.Equal(metrics, ref.metrics)
	if !res.ok {
		keepMismatch(e, fmt.Sprintf("sweep-quick=%t", quick), out.Bytes())
	}
	return res, nil
}

func keepMismatch(e *env, what string, got []byte) {
	p := filepath.Join(e.out, "mismatch", strings.NewReplacer(" ", "_", "/", "_").Replace(what)+".txt")
	if os.MkdirAll(filepath.Dir(p), 0o755) == nil && os.WriteFile(p, got, 0o644) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: output mismatch for %s, kept in %s\n", what, p)
	}
}

// bootTime is the sweep workloads' set-up cost: one apbench process that
// starts, parses flags, renders a parameter table and exits — everything
// a sweep pays before its first simulation.
func bootTime(ctx context.Context, e *env) (interval, error) {
	cs, err := runChild(exec.CommandContext(ctx, e.apbench, "-experiment", "table2"), nil)
	return interval{cs.start, cs.wall}, err
}

// sweepTrace is what the traced in-process sweep reports per layer.
type sweepTrace struct {
	wall        time.Duration
	experiments map[string]time.Duration
	points      []float64 // ms
	measures    int
	measureCold []float64 // ms, neither machine branched
	measureBr   []float64 // ms, at least one machine branched
	snap        obs.Snapshot
	ok          bool // tables and counters matched the references
}

// tracedSweep runs the sweep in-process through experiments.Dispatch
// exactly as apbench -jobs 1 does, with run.Progress hooks recording
// experiment > point > measure spans, and checks that its output and
// simulated counters are identical to the untraced references.
func tracedSweep(e *env, quick bool, ref sweepRef, rec *recorder) (sweepTrace, error) {
	st := sweepTrace{experiments: map[string]time.Duration{}}
	var mu sync.Mutex
	var label string
	var labelAt time.Time
	closeLabel := func(now time.Time) {
		if label == "" {
			return
		}
		st.experiments[label] += now.Sub(labelAt)
		rec.add(span{Name: label, Cat: "experiment", TID: tidSweep, Start: labelAt, Dur: now.Sub(labelAt)})
	}
	prog := &run.Progress{
		OnLabel: func(l string) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			closeLabel(now)
			label, labelAt = l, now
		},
		OnPoint: func(ev run.PointEvent) {
			mu.Lock()
			defer mu.Unlock()
			st.points = append(st.points, ms(ev.Wall))
			rec.add(span{Name: fmt.Sprintf("point %d/%d", ev.Done, ev.Total), Cat: "point",
				TID: tidSweep, Start: ev.Start, Dur: ev.Wall})
		},
		OnMeasure: func(ev run.MeasureEvent) {
			mu.Lock()
			defer mu.Unlock()
			st.measures++
			if ev.ConvCheckpoint == "branch" || ev.APCheckpoint == "branch" {
				st.measureBr = append(st.measureBr, ms(ev.Wall))
			} else {
				st.measureCold = append(st.measureCold, ms(ev.Wall))
			}
			rec.add(span{Name: fmt.Sprintf("%s p=%g", ev.Benchmark, ev.Pages), Cat: "measure",
				TID: tidSweep, Start: ev.Start, Dur: ev.Wall,
				Args: map[string]any{"conv": ev.ConvCheckpoint, "ap": ev.APCheckpoint, "backend": ev.Backend}})
		},
	}
	r := (&run.Runner{Jobs: 1, Checkpoints: run.NewCheckpointCache(0), Progress: prog}).WithMetrics()
	cfg := radram.DefaultConfig().WithPageBytes(experiments.ScaledPageBytes)
	points := experiments.DefaultPagePoints()
	if quick {
		points = experiments.QuickPagePoints()
	}
	var out bytes.Buffer
	start := time.Now()
	err := experiments.Dispatch(&out, r, "all", cfg, points, experiments.Options{Backend: "radram"})
	end := time.Now()
	st.wall = end.Sub(start)
	mu.Lock()
	closeLabel(end)
	mu.Unlock()
	if err != nil {
		return st, err
	}
	rec.add(span{Name: "sweep all", Cat: "sweep", TID: tidSweep, Start: start, Dur: st.wall})
	st.snap = r.Metrics.Snapshot()
	j, err := st.snap.JSON()
	if err != nil {
		return st, err
	}
	st.ok = bytes.Equal(out.Bytes(), ref.tables) && bytes.Equal(append(j, '\n'), ref.metrics)
	if !st.ok {
		keepMismatch(e, fmt.Sprintf("traced-sweep-quick=%t", quick), out.Bytes())
	}
	return st, nil
}

// sumSuffix adds every snapshot counter whose key ends in suffix, across
// machine prefixes (conv., rad., smp., simdram.).
func sumSuffix(s obs.Snapshot, suffix string) float64 {
	var t float64
	for k, v := range s {
		if strings.HasSuffix(k, suffix) {
			t += float64(v)
		}
	}
	return t
}

// sweepLayers derives the per-layer metrics of a traced sweep: host time
// per experiment, point and measure, checkpoint branching, and the
// simulated counters of every modelled component.
func sweepLayers(st sweepTrace) map[string]float64 {
	s := st.snap
	m := map[string]float64{}
	for _, name := range []string{"fig3", "fig4", "table4", "crossover", "fig5", "fig8", "fig9", "smp", "ablations"} {
		m["experiments."+name+"_s"] = st.experiments[name].Seconds()
	}
	m["apps.measures"] = float64(st.measures)
	m["apps.measure_cold_ms"] = median(st.measureCold)
	m["apps.measure_branch_ms"] = median(st.measureBr)
	m["run.points"] = float64(len(st.points))
	m["run.point_p50_ms"] = median(st.points)
	for _, mc := range []struct{ name, prefix string }{{"conv", "conv."}, {"rad", "rad."}} {
		br := float64(s[mc.prefix+"diag.checkpoint_branch"])
		cold := float64(s[mc.prefix+"diag.checkpoint_cold"])
		m["run.ckpt_branch_ratio."+mc.name] = ratio(br, br+cold)
	}
	folded := sumSuffix(s, ".mem.diag.fold_folded_iters")
	m["memsys.fold_engaged_ratio"] = ratio(sumSuffix(s, ".mem.diag.fold_engaged"), sumSuffix(s, ".mem.diag.fold_streams"))
	m["memsys.fold_iter_share"] = ratio(folded, folded+sumSuffix(s, ".mem.diag.fold_scalar_iters"))
	m["memsys.fold_streams"] = sumSuffix(s, ".mem.diag.fold_streams")
	l1h, l1m := sumSuffix(s, ".mem.l1d.hits"), sumSuffix(s, ".mem.l1d.misses")
	l2h, l2m := sumSuffix(s, ".mem.l2.hits"), sumSuffix(s, ".mem.l2.misses")
	m["cache.l1d_accesses"] = l1h + l1m
	m["cache.l1d_hit_ratio"] = ratio(l1h, l1h+l1m)
	m["cache.l2_hit_ratio"] = ratio(l2h, l2h+l2m)
	rh, rm := sumSuffix(s, ".mem.dram.row_hits"), sumSuffix(s, ".mem.dram.row_misses")
	m["dram.accesses"] = sumSuffix(s, ".mem.dram.accesses")
	m["dram.row_hit_ratio"] = ratio(rh, rh+rm)
	m["bus.transfers"] = sumSuffix(s, ".mem.bus.transfers")
	m["proc.instructions"] = sumSuffix(s, ".proc.instructions")
	m["core.activations"] = sumSuffix(s, ".ap.activations")
	m["core.inter_page_transfers"] = sumSuffix(s, ".ap.inter_page_transfers")
	refs := l1h + l1m + sumSuffix(s, ".mem.uncached_accesses")
	m["sim.host_ns_per_ref"] = ratio(float64(st.wall.Nanoseconds()), refs)
	return m
}
