package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Traced fleet segments: a reference rung of hits is run untraced and
// then traced for the overhead figure, and a churn of fresh specs among
// hits drives the serve queue, Dispatch, the daemon's checkpoint cache and
// simdram for the fleet layers.
const (
	overheadRung = 3 * time.Second
	churnSegment = 5 * time.Second
)

// traced measures every per-layer metric. The sweep layers come from an
// in-process sweep (full for sweep-full, quick otherwise), the probes
// from the layers' public calls, and the fleet layers from a fleet
// segment: the rate ladder on fleet-hot, a churn on the sweep workloads.
func traced(ctx context.Context, r *runState) error {
	rec := newRecorder()
	quick := r.workload != "sweep-full"
	ref, err := r.e.loadSweepRef(quick)
	if err != nil {
		return err
	}
	un, err := sweepChild(ctx, r.e, quick, ref)
	if err != nil {
		return err
	}
	r.op(!un.ok)
	st, err := tracedSweep(r.e, quick, ref, rec)
	if err != nil {
		return err
	}
	r.op(!st.ok)
	layers := sweepLayers(st)
	layers["trace.overhead_wall_s"] = st.wall.Seconds() - un.child.wall.Seconds()
	r.note("sweep quick=%t: untraced %.3f s, traced %.3f s, counters identical to the untraced run: %t",
		quick, un.child.wall.Seconds(), st.wall.Seconds(), st.ok)

	sim, err := simProbes(rec)
	if err != nil {
		return err
	}
	srv, err := serveProbes(ctx, rec)
	if err != nil {
		return err
	}
	fl, err := fleetSegment(ctx, r, rec)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{sim, srv, fl} {
		for k, v := range m {
			layers[k] = v
		}
	}
	for k, v := range layers {
		r.set(k, v, layerUnit(k))
	}
	return r.writeTrace(rec)
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_s", "s"}, {"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_ns_per_line", "ns"},
		{"_ns_per_iter", "ns"}, {"_ns_per_ref", "ns"}, {"_mb", "MB"}, {"_allocs", "count"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	if strings.Contains(name, "ratio") || strings.Contains(name, "share") {
		return "ratio"
	}
	return "count"
}

// fleetSegment boots and warms one fleet, runs the overhead rungs, then
// the traced main schedule, and derives the fleet layers from the
// requests' spans, the cold runs' lifecycle stamps and the difference of
// two /api/v1/metricsz scrapes taken after boot and at the end.
func fleetSegment(ctx context.Context, r *runState, rec *recorder) (map[string]float64, error) {
	digests, err := r.e.loadSpecRefs()
	if err != nil {
		return nil, err
	}
	f, err := bootFleet(ctx, r.e, r.conns)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	before, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cold, failed := f.warm(ctx, digests, rec)
	r.ops(len(hotSpecs()), failed)

	n := int(refRate * overheadRung.Seconds())
	plain := r.tally(f.openLoop(ctx, hotPlan(r.seed, 90, n), refRate, r.conns, digests, nil, "plain"))
	spanned := r.tally(f.openLoop(ctx, hotPlan(r.seed, 91, n), refRate, r.conns, digests, rec, "traced"))
	overhead := median(hitLatencies(spanned)) - median(hitLatencies(plain))

	var main []outcome
	switch r.workload {
	case "fleet-hot":
		rungDur := r.budget / time.Duration(len(ladderRates))
		for i, rate := range ladderRates {
			plan := hotPlan(r.seed, i, int(rate*rungDur.Seconds()))
			main = append(main, f.openLoop(ctx, plan, rate, r.conns, digests, rec, fmt.Sprintf("hot%d", i))...)
		}
	default:
		m := int(churnRate * churnSegment.Seconds())
		plan := churnPlan(r.seed, 0, m, freshSequence(r.seed, m/freshEvery))
		main = f.openLoop(ctx, plan, churnRate, r.conns, digests, rec, "churn")
	}
	r.tally(main)
	lag := r.checkLag(main)
	after, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	r.ops(len(hotSpecs()), f.verifyHot(ctx, digests))

	cold = append(cold, freshCold(main)...)
	var waits, walls []float64
	for _, c := range cold {
		waits = append(waits, ms(c.queueWait))
		walls = append(walls, ms(c.runWall))
	}
	fleetD, routerD := delta(before.Fleet, after.Fleet), delta(before.Router, after.Router)
	hits := float64(fleetD["serve.cache_hits"])
	lookups := hits + float64(fleetD["serve.cache_misses"]+fleetD["serve.cache_dedup"])
	return map[string]float64{
		"fleet.hit_ratio":           ratio(hits, lookups),
		"router.retries":            float64(routerD["router.retries"]),
		"router.shed":               float64(routerD["router.shed"]),
		"serve.queue_wait_p99_ms":   percentile(waits, 99),
		"serve.run_wall_p50_ms":     median(walls),
		"serve.http_submit_p50_us":  histQuantile(histBuckets(fleetD, "serve.http.post_api_v1_runs"), 0.5) / 1e3,
		"router.http_submit_p50_us": histQuantile(histBuckets(routerD, "router.http.post_api_v1_runs"), 0.5) / 1e3,
		"gen.lag_p99_ms":            lag,
		"trace.overhead_p50_ms":     overhead,
	}, nil
}
