package experiments

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/apps/database"
	"activepages/internal/apps/lcs"
	"activepages/internal/pager"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/tabler"
)

// ablations is the ablations experiment: the five ablations, the
// swap-cost table and the paging study, measured in print order.
func ablations(r *run.Runner, cfg radram.Config) ([]block, error) {
	act, err := AblationActivation(r, cfg, 16)
	if err != nil {
		return nil, err
	}
	inter, err := AblationInterPage(r, cfg, 16)
	if err != nil {
		return nil, err
	}
	bind, err := AblationBind(r, cfg, 16)
	if err != nil {
		return nil, err
	}
	size, err := AblationPageSize(r, 4*1024*1024)
	if err != nil {
		return nil, err
	}
	mmx, err := AblationMMXWidth(r, cfg, 16)
	if err != nil {
		return nil, err
	}
	return []block{
		{figure: act, csv: "ablation-activation"},
		{figure: inter, csv: "ablation-interpage"},
		{table: bind},
		{figure: size, csv: "ablation-pagesize"},
		{table: mmx},
		{table: SwapCost(radram.DefaultConfig())},
		{figure: PagingStudy(r, 8, 3500), csv: "paging"},
	}, nil
}

// AblationActivation varies the per-activation dispatch cost, showing how
// partitioning overhead shifts the sub-page/scalable boundary (Section 2:
// "partitions can be tuned to shift this scalable region").
func AblationActivation(r *run.Runner, cfg radram.Config, pages float64) (*tabler.Figure, error) {
	dispatch := []uint64{10, 60, 200, 1000, 5000}
	f := tabler.NewFigure("Ablation: speedup vs activation dispatch cost (database)",
		"dispatch instructions", "speedup")
	f.X = axis(dispatch, func(d uint64) float64 { return float64(d) })
	bs := []apps.Benchmark{database.Benchmark{}}
	g, err := grid(r, bs, len(dispatch), func(i int) (radram.Config, float64) {
		c := cfg
		c.AP.DispatchInstructions = dispatch[i]
		return c, pages
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, bs, g, apps.Measurement.Speedup)
	return f, nil
}

// AblationInterPage varies the inter-page interrupt cost on the wavefront
// application, from idealized hardware support (0, the Section 10 future-
// work alternative) to expensive processor mediation.
func AblationInterPage(r *run.Runner, cfg radram.Config, pages float64) (*tabler.Figure, error) {
	interrupt := []uint64{0, 50, 200, 1000, 5000}
	f := tabler.NewFigure("Ablation: speedup vs inter-page interrupt cost (dynamic-prog)",
		"interrupt instructions", "speedup")
	f.X = axis(interrupt, func(d uint64) float64 { return float64(d) })
	bs := []apps.Benchmark{lcs.Benchmark{}}
	g, err := grid(r, bs, len(interrupt), func(i int) (radram.Config, float64) {
		c := cfg
		c.AP.InterruptInstructions = interrupt[i]
		return c, pages
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, bs, g, apps.Measurement.Speedup)
	return f, nil
}

// AblationBind compares amortized binding (the reference) against charging
// full reconfiguration time at every AP_bind — the paper's 2-4x
// page-replacement cost discussion (Section 6). Each benchmark's two
// configurations are adjacent grid points, amortized first.
func AblationBind(r *run.Runner, cfg radram.Config, pages float64) (*tabler.Table, error) {
	t := tabler.New("Ablation: reconfiguration charging at AP_bind",
		"Benchmark", "amortized speedup", "charged speedup")
	cfgs := []radram.Config{cfg, cfg}
	cfgs[1].AP.ChargeBind = true
	bs := Benchmarks()
	g, err := grid(r, bs, len(cfgs), func(i int) (radram.Config, float64) { return cfgs[i], pages })
	if err != nil {
		return nil, err
	}
	for bi, b := range bs {
		t.Row(b.Name(), g[bi][0].Speedup(), g[bi][1].Speedup())
	}
	return t, nil
}

// AblationPageSize holds total data constant while varying the superpage
// granularity: smaller pages mean more parallel logic blocks but more
// activations — the parallelism/overhead tradeoff behind RADram's 512 KB
// subarray choice (Section 3).
func AblationPageSize(r *run.Runner, dataBytes uint64) (*tabler.Figure, error) {
	sizes := []uint64{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}
	f := tabler.NewFigure("Ablation: speedup vs superpage size at fixed data size (database)",
		"page KB", "speedup")
	f.X = axis(sizes, func(s uint64) float64 { return float64(s) / 1024 })
	bs := []apps.Benchmark{database.Benchmark{}}
	g, err := grid(r, bs, len(sizes), func(i int) (radram.Config, float64) {
		return radram.DefaultConfig().WithPageBytes(sizes[i]), float64(dataBytes) / float64(sizes[i])
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, bs, g, apps.Measurement.Speedup)
	return f, nil
}

// AblationMMXWidth compares the conventional 32-bit-result MMX against the
// wide RADram MMX at one problem size by reporting both executions' times
// (Section 5.2's width discussion is the whole mpeg benchmark; this
// surfaces the raw times).
func AblationMMXWidth(r *run.Runner, cfg radram.Config, pages float64) (*tabler.Table, error) {
	m, err := apps.Measure(r, BenchmarksMPEG(), cfg, pages)
	if err != nil {
		return nil, err
	}
	t := tabler.New("Ablation: MMX instruction width (32-bit results vs page-wide)",
		"Implementation", "time (ms)")
	t.Row("SimpleScalar MMX (32-bit results)", m.ConvTime.Milliseconds())
	t.Row("RADram wide MMX (page-wide results)", m.RadTime.Milliseconds())
	return t, nil
}

// BenchmarksMPEG returns the mpeg kernel (helper for the width ablation).
func BenchmarksMPEG() apps.Benchmark {
	for _, b := range Benchmarks() {
		if b.Name() == "mpeg-mmx" {
			return b
		}
	}
	panic("experiments: mpeg-mmx benchmark missing")
}

// PagingStudy sweeps the working-set size against a fixed resident set,
// comparing total fault-service time for conventional pages versus Active
// Pages (which reload their function bitstreams on swap-in) — Section 10's
// OS-integration concern made quantitative. The trace visits the working
// set cyclically, the worst case for LRU.
func PagingStudy(r *run.Runner, residentPages int, bitstreamBytes int) *tabler.Figure {
	f := tabler.NewFigure(
		"Paging: fault overhead vs working set (resident="+fmt.Sprint(residentPages)+" pages)",
		"working-set pages", "fault time (ms)")
	sets := []int{residentPages / 2, residentPages, residentPages + 1,
		residentPages * 2, residentPages * 4}
	f.X = axis(sets, func(ws int) float64 { return float64(ws) })
	type point struct{ conv, act float64 }
	// Each point builds its own pagers, so the sweep parallelizes like any
	// other; RunTrace cannot fail, so the error is always nil.
	points, _ := run.Map(r, len(sets), func(i int) (point, error) {
		ws := sets[i]
		trace := make([]uint64, 0, ws*20)
		for rep := 0; rep < 20; rep++ {
			for pg := 0; pg < ws; pg++ {
				trace = append(trace, uint64(pg))
			}
		}
		pc := pager.New(pager.DefaultConfig(residentPages))
		pa := pager.New(pager.DefaultConfig(residentPages))
		return point{
			conv: pc.RunTrace(trace, false, 0).Milliseconds(),
			act:  pa.RunTrace(trace, true, bitstreamBytes).Milliseconds(),
		}, nil
	})
	conv := make([]float64, len(sets))
	act := make([]float64, len(sets))
	for i, p := range points {
		conv[i], act[i] = p.conv, p.act
	}
	f.Add("conventional", conv)
	f.Add("active-pages", act)
	return f
}
