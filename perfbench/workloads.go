package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Set-up repetitions: a run sets its system up this many times and
// reports the median, keeping the last set-up for the measured phase.
const (
	sweepBoots  = 51
	fleetSetups = 3
)

// minSweeps is the fewest sweeps a sweep run measures, even when they
// overrun the measured phase: a full sweep takes most of it, and a run's
// medians should not rest on a single sweep.
const minSweeps = 2

// fleetMetering is how long fleet-hot meters the host's speed before each
// rung of its ladder and after the last; the meter cannot run during a
// rung without taking part of a core from the fleet.
const fleetMetering = time.Second

// cpuRateMax is the highest ladder rate whose CPU counts towards
// fleet-hot's cpu_s. At 3000 req/s the two cores saturate, and the fleet
// burns whatever CPU it is given: that rung's CPU moved by 45% between
// runs at one host speed.
const cpuRateMax = 2000.0

// The fleet's open-loop schedules.
var (
	ladderRates = []float64{500, 1000, 2000, 3000} // req/s, fleet-hot
	refRate     = 1000.0                           // req/s at which fleet-hot latency is reported
	churnRate   = 500.0                            // req/s, the traced churn segment
)

// latencyLimit is the tail-latency limit a ladder rate must meet to count
// towards goodput, and the answer delay beyond which its backlog counts as
// growing.
const latencyLimit = 10 * time.Millisecond

// lagLimit is how late the generator may run (p99 of dispatch lateness)
// before a fleet run's latencies are flagged as not trustworthy.
const lagLimit = 2 * time.Millisecond

// sweepWorkload meters the host's speed while it boots apbench and runs
// the sweeps, and reports them at the reference host speed.
func sweepWorkload(ctx context.Context, r *runState, quick bool) error {
	ref, err := r.e.loadSweepRef(quick)
	if err != nil {
		return err
	}
	hs := hostSpeed{power: sweepPower}
	hs.start()
	boots, sweeps, err := runSweeps(ctx, r, quick, ref)
	hs.end()
	if err != nil {
		return err
	}
	// A boot is not a sweep: it is scaled by the plain slowdown.
	plain := hostSpeed{power: 1, slices: hs.slices}
	var setups []float64
	for _, b := range boots {
		setups = append(setups, b.scaled(&plain))
	}
	// The sweep timings are user CPU time, not wall time: on a shared
	// host, wall time also counts time the child waited for a core, lost
	// to the hypervisor, or spent in the kernel faulting in its fresh
	// memory. Each is scaled to the reference host speed over the seconds
	// it was spent in (hostspeed.go).
	var cpus, raw, walls, p50s, tails, wallSections []float64
	var exps experimentCPU
	var rss float64
	for _, s := range sweeps {
		c := s.child
		cpus = append(cpus, c.user.Seconds()*hs.scaleBetween(c.start, c.start.Add(c.wall)))
		raw = append(raw, c.user.Seconds())
		walls = append(walls, c.wall.Seconds())
		rss = max(rss, c.rssMB)
		out := tableLatencies(s.sections, &hs)
		p50s = append(p50s, median(out))
		tails = append(tails, percentile(out, tailPct))
		for _, sec := range s.sections {
			exps.add(sec.name, ms(sec.cpu)*hs.scaleBetween(sec.start, sec.start.Add(sec.wall)))
			wallSections = append(wallSections, ms(sec.wall))
		}
	}
	r.note("host speed: %s", &hs)
	r.set("setup_s", median(setups), "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.note("cpu_s: %d sweeps, scaled user CPU %v; unscaled %v; wall median %.4f s of %v",
		len(cpus), cpus, raw, median(walls), walls)
	r.set("p50_ms", median(p50s), "ms")
	r.set("tail_ms", median(tails), "ms")
	r.note("p50_ms, tail_ms: median and p%d of each sweep's %d table latencies, median over sweeps of %v and %v",
		tailPct, len(sweeps[0].sections), p50s, tails)
	r.note("experiments' mean scaled user CPU (ms): %s", exps)
	r.setTiming("experiment sections, wall", "", "", wallSections)
	return nil
}

// tableLatencies is when each of a sweep's tables was out, in scaled user
// CPU ms from the first. A sweep prints its dozen tables as each is
// computed, so a table's latency is what a reader waits for it. Each is
// scaled over the span from the first table to it: a single experiment's
// time swings by 10-25% between runs, as a short experiment catches or
// misses a slowdown of the host, and a span from the start averages over
// more of them. A dozen tables are too few for a percentile with ten
// beyond it; the tail is their p90, the eleventh.
func tableLatencies(secs []section, hs *hostSpeed) []float64 {
	var out []float64
	var cpu time.Duration
	for _, sec := range secs {
		cpu += sec.cpu
		out = append(out, ms(cpu)*hs.scaleBetween(secs[0].start, sec.start.Add(sec.wall)))
	}
	return out
}

// runSweeps boots apbench sweepBoots times, then runs untraced sweep
// processes back to back, each checked against the references: at least
// minSweeps, and more while another fits in the measured phase.
func runSweeps(ctx context.Context, r *runState, quick bool, ref sweepRef) ([]interval, []sweepResult, error) {
	var boots []interval
	for i := 0; i < sweepBoots; i++ {
		b, err := bootTime(ctx, r.e)
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, b)
	}
	var sweeps []sweepResult
	start := time.Now()
	for {
		res, err := sweepChild(ctx, r.e, quick, ref)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			r.op(true)
			break
		}
		r.op(!res.ok)
		sweeps = append(sweeps, res)
		if len(sweeps) >= minSweeps && time.Since(start)+res.child.wall > r.budget {
			break
		}
	}
	if len(sweeps) == 0 {
		return nil, nil, fmt.Errorf("no sweep completed")
	}
	return boots, sweeps, nil
}

// experimentCPU collects each experiment's user CPU (ms) over a run's
// sweeps. /proc gives CPU time in 10 ms ticks, so one section's reading
// is off by up to a tick at each end; averaging an experiment over the
// run's sweeps shrinks that error, where a median of single sections
// would snap to whole ticks.
type experimentCPU struct {
	names []string // in sweep order
	sum   map[string]float64
	n     map[string]int
}

func (c *experimentCPU) add(name string, cpuMS float64) {
	if c.sum == nil {
		c.sum, c.n = map[string]float64{}, map[string]int{}
	}
	if c.n[name] == 0 {
		c.names = append(c.names, name)
	}
	c.sum[name] += cpuMS
	c.n[name]++
}

// means returns each experiment's mean, in sweep order.
func (c *experimentCPU) means() []float64 {
	xs := make([]float64, len(c.names))
	for i, name := range c.names {
		xs[i] = c.sum[name] / float64(c.n[name])
	}
	return xs
}

func (c experimentCPU) String() string {
	var b strings.Builder
	for i, m := range c.means() {
		fmt.Fprintf(&b, "%s=%.1f ", c.names[i], m)
	}
	return strings.TrimSpace(b.String())
}

// setupFleet boots and warms the fleet fleetSetups times, keeping the
// last one running. It returns the fleet, the set-ups' spans, and every
// warm-up run's cold latency.
func setupFleet(ctx context.Context, r *runState, digests map[string]string) (*fleetProc, []interval, []coldRun, error) {
	var setups []interval
	var cold []coldRun
	var f *fleetProc
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var err error
		f, err = bootFleet(ctx, r.e, r.conns)
		if err != nil {
			return nil, nil, nil, err
		}
		c, failed := f.warm(ctx, digests, nil)
		setups = append(setups, interval{start, time.Since(start)})
		cold = append(cold, c...)
		r.ops(len(hotSpecs()), failed)
	}
	return f, setups, cold, nil
}

// tally counts a schedule's outcomes: every request is an operation, and
// a failed one is a failed operation. It returns outs.
func (r *runState) tally(outs []outcome) []outcome {
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", o.err)
		}
		r.op(o.err != nil)
	}
	return outs
}

// hitLatencies are the latencies (ms) of successful requests answered
// from the result cache.
func hitLatencies(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.err == nil && o.cache == "hit" && !o.fresh {
			xs = append(xs, ms(o.latency))
		}
	}
	return xs
}

// rungVerdict reports whether a rate rung met the latency limit at its
// tail with no failures and no growing backlog (the last tenth of the
// rung was not answered later than the limit, at the median).
func rungVerdict(outs []outcome) (tail float64, backlog, ok bool) {
	lat := hitLatencies(outs)
	t := summarize(lat)
	var late []float64
	for _, o := range outs[len(outs)*9/10:] {
		late = append(late, ms(o.latency))
	}
	backlog = median(late) > ms(latencyLimit)
	failed := len(lat) < len(outs)
	return t.Tail, backlog, !failed && !backlog && t.Tail <= ms(latencyLimit)
}

func lagP99(outs []outcome) float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.lag)
	}
	return percentile(xs, 99)
}

func (r *runState) checkLag(outs []outcome) float64 {
	lag := lagP99(outs)
	valid := lag <= ms(lagLimit)
	r.note("generator lag p99 %.3f ms (limit %.1f ms): valid=%t", lag, ms(lagLimit), valid)
	return lag
}

func fleetHot(ctx context.Context, r *runState) error {
	digests, err := r.e.loadSpecRefs()
	if err != nil {
		return err
	}
	setupSpeed := hostSpeed{power: 1}
	setupSpeed.start()
	f, setups, cold, err := setupFleet(ctx, r, digests)
	setupSpeed.end()
	if err != nil {
		return err
	}
	defer f.stop()
	var setupTimes []float64
	for _, s := range setups {
		setupTimes = append(setupTimes, s.scaled(&setupSpeed))
	}
	rungDur := r.budget / time.Duration(len(ladderRates))
	var all, ref []outcome
	goodput := 0.0
	hs := hostSpeed{power: 1}
	var cpu time.Duration // aprouted's user CPU over the rungs up to cpuRateMax
	for i, rate := range ladderRates {
		hs.meterFor(fleetMetering)
		plan := hotPlan(r.seed, i, int(rate*rungDur.Seconds()))
		u0, s0, err := procCPU(f.cmd.Process.Pid)
		if err != nil {
			return err
		}
		outs := f.openLoop(ctx, plan, rate, r.conns, digests, nil, fmt.Sprintf("hot%d", i))
		u1, s1, err := procCPU(f.cmd.Process.Pid)
		if err != nil {
			return err
		}
		if rate <= cpuRateMax {
			cpu += u1 - u0
		}
		all = append(all, outs...)
		tail, backlog, ok := rungVerdict(outs)
		r.note("rung %.0f req/s: n=%d tail=%.3f ms backlog=%t meets_limit=%t user_cpu=%.2f s system_cpu=%.2f s",
			rate, len(outs), tail, backlog, ok, (u1 - u0).Seconds(), (s1 - s0).Seconds())
		if ok {
			goodput = rate
		}
		if rate == refRate {
			ref = outs
		}
	}
	hs.meterFor(fleetMetering)
	r.tally(all)
	r.note("goodput_rps: %.0f (highest rung with tail <= %v, no failures, no backlog)", goodput, latencyLimit)
	r.checkLag(all)
	r.ops(len(hotSpecs()), f.verifyHot(ctx, digests))
	rss := f.stop()
	r.set("setup_s", median(setupTimes), "s")
	r.note("setup_s: %d set-ups, scaled %v; host speed during set-up: %s", len(setups), setupTimes, &setupSpeed)
	r.set("cpu_s", cpu.Seconds()*hs.scale(), "s")
	r.note("host speed between rungs: %s", &hs)
	r.note("cpu_s: aprouted's user CPU over the rungs up to %.0f req/s, %.4f s unscaled", cpuRateMax, cpu.Seconds())
	r.set("peak_rss_mb", rss, "MB")
	r.setRequests(fmt.Sprintf("hit requests at %.0f req/s", refRate), hitLatencies(ref))
	r.noteCold("warm-up runs, submit to run done", coldLatencies(cold))
	return nil
}

func coldLatencies(cs []coldRun) []float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = ms(c.latency)
	}
	return xs
}

func freshCold(outs []outcome) []coldRun {
	var cs []coldRun
	for _, o := range outs {
		if o.fresh && o.err == nil {
			cs = append(cs, o.cold)
		}
	}
	return cs
}

// gitRevision reads the checkout's revision and whether tracked files
// differ from it; a checkout without .git reports "unknown".
func gitRevision(root string) (string, any) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", "unknown"
	}
	rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(rev)), "unknown"
	}
	return strings.TrimSpace(string(rev)), len(strings.TrimSpace(string(st))) > 0
}
