package apps_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/apps/database"
	"activepages/internal/apps/lcs"
	"activepages/internal/apps/matrix"
	"activepages/internal/apps/median"
	"activepages/internal/apps/mpeg"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// testConfig keeps pages small so functional verification stays fast.
func testConfig() radram.Config {
	return radram.DefaultConfig().WithPageBytes(64 * 1024)
}

func allBenchmarks() []apps.Benchmark {
	return []apps.Benchmark{
		array.Benchmark{},
		database.Benchmark{},
		median.Benchmark{},
		median.Total{},
		lcs.Benchmark{},
		matrix.Benchmark{Variant: matrix.Boeing},
		matrix.Benchmark{Variant: matrix.Simplex},
		mpeg.Benchmark{},
	}
}

// Every benchmark must verify its own functional result on both machine
// types across the region boundary (sub-page, one page, several pages).
func TestAllBenchmarksVerifyBothMachines(t *testing.T) {
	for _, b := range allBenchmarks() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			for _, pages := range []float64{0.25, 1, 3} {
				conv := radram.NewConventional(testConfig())
				if err := b.Run(conv, pages); err != nil {
					t.Fatalf("conventional %g pages: %v", pages, err)
				}
				if conv.Elapsed() == 0 {
					t.Fatalf("conventional %g pages took no time", pages)
				}
				rad := radram.MustNew(testConfig())
				if err := b.Run(rad, pages); err != nil {
					t.Fatalf("radram %g pages: %v", pages, err)
				}
				if rad.Elapsed() == 0 {
					t.Fatalf("radram %g pages took no time", pages)
				}
			}
		})
	}
}

// In the scalable region every application must beat the conventional
// system (the paper's central result), except the array mix, whose
// sub-page conventional advantage persists a little longer.
func TestScalableRegionSpeedups(t *testing.T) {
	for _, b := range allBenchmarks() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			m, err := apps.Measure(nil, b, testConfig(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if m.Speedup() <= 1 {
				t.Fatalf("speedup at 8 pages = %v, want > 1", m.Speedup())
			}
		})
	}
}

// Speedup must grow with problem size through the scalable region for the
// memory-centric applications.
func TestSpeedupGrowsThroughScalableRegion(t *testing.T) {
	for _, b := range []apps.Benchmark{database.Benchmark{}, median.Benchmark{}, lcs.Benchmark{}} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			m4, err := apps.Measure(nil, b, testConfig(), 4)
			if err != nil {
				t.Fatal(err)
			}
			m16, err := apps.Measure(nil, b, testConfig(), 16)
			if err != nil {
				t.Fatal(err)
			}
			if m16.Speedup() <= m4.Speedup() {
				t.Fatalf("speedup did not grow: %v at 4 pages, %v at 16",
					m4.Speedup(), m16.Speedup())
			}
		})
	}
}

// The processor-centric kernels saturate: non-overlap collapses once the
// processor is the bottleneck.
func TestProcessorCentricSaturation(t *testing.T) {
	for _, b := range []apps.Benchmark{
		matrix.Benchmark{Variant: matrix.Boeing},
		matrix.Benchmark{Variant: matrix.Simplex},
	} {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			small, err := apps.Measure(nil, b, testConfig(), 1)
			if err != nil {
				t.Fatal(err)
			}
			big, err := apps.Measure(nil, b, testConfig(), 32)
			if err != nil {
				t.Fatal(err)
			}
			if big.NonOverlap >= small.NonOverlap {
				t.Fatalf("non-overlap did not fall: %v -> %v", small.NonOverlap, big.NonOverlap)
			}
			if big.NonOverlap > 0.15 {
				t.Fatalf("matrix at 32 pages should be nearly saturated, non-overlap %v", big.NonOverlap)
			}
		})
	}
}

// Memory-centric kernels keep high non-overlap in the scalable region
// (Figure 4's top curves).
func TestMemoryCentricHighNonOverlap(t *testing.T) {
	for _, b := range []apps.Benchmark{array.Benchmark{}, median.Benchmark{}} {
		m, err := apps.Measure(nil, b, testConfig(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if m.NonOverlap < 0.5 {
			t.Errorf("%s non-overlap at 8 pages = %v, expected high", b.Name(), m.NonOverlap)
		}
	}
}

// The measurement must populate the Table 4 per-page metrics.
func TestMeasurementMetricsPopulated(t *testing.T) {
	m, err := apps.Measure(nil, database.Benchmark{}, testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.ActivationTime == 0 {
		t.Error("T_A not measured")
	}
	if m.BusyTime == 0 {
		t.Error("T_C not measured")
	}
	if m.ConvTime == 0 || m.RadTime == 0 {
		t.Error("times missing")
	}
}

// errInjected is the failure failOn injects.
var errInjected = errors.New("injected failure")

// failOn is array with its run failing on one machine of the pair. Its
// name keeps its checkpoint keys apart from array's.
type failOn struct {
	array.Benchmark
	ap bool // fail on the Active-Page machine, else on the conventional one
}

func (f failOn) Name() string {
	if f.ap {
		return "array-apfail"
	}
	return "array-convfail"
}

func (f failOn) Run(m *radram.Machine, pages float64) error {
	if (m.AP != nil) == f.ap {
		return errInjected
	}
	return f.Benchmark.Run(m, pages)
}

// A measure event reports the machine runs that happened, failed
// measurements included: a cold run that failed is "cold", a machine that
// never ran is "", and a restored one is "branch".
func TestMeasureEventsReportRunsThatHappened(t *testing.T) {
	var events [][2]string
	prog := &run.Progress{OnMeasure: func(ev run.MeasureEvent) {
		events = append(events, [2]string{ev.ConvCheckpoint, ev.APCheckpoint})
	}}
	r := &run.Runner{Jobs: 1, Checkpoints: run.NewCheckpointCache(0), Progress: prog}
	for _, b := range []apps.Benchmark{array.Benchmark{}, failOn{}, failOn{ap: true}, failOn{ap: true}} {
		_, err := apps.Measure(r, b, testConfig(), 2)
		if fails := b.Name() != "array"; fails != errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v", b.Name(), err)
		}
	}
	want := [][2]string{{"cold", "cold"}, {"cold", ""}, {"cold", "cold"}, {"branch", "cold"}}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events (conv, ap) = %q, want %q", events, want)
	}
	if s := prog.Snapshot(); s.CheckpointCold != 6 || s.CheckpointHit != 1 || s.CheckpointBranch != 1 {
		t.Errorf("cold/hit/branch = %d/%d/%d, want 6/1/1",
			s.CheckpointCold, s.CheckpointHit, s.CheckpointBranch)
	}
}

// cancelOn is array with its conventional run canceling the runner's
// context, as a daemon's run timeout can while a machine runs. It keeps
// array's name, so its checkpoint keys are array's.
type cancelOn struct {
	array.Benchmark
	cancel context.CancelFunc
}

func (c cancelOn) Run(m *radram.Machine, pages float64) error {
	if m.AP == nil {
		c.cancel()
	}
	return c.Benchmark.Run(m, pages)
}

// A measure canceled while its conventional machine runs finishes that run
// and stops before the Active-Page one: the sweep fails with "run
// canceled", the measure event reports the cold run that happened and the
// one that never started, and the finished run stays cached, so a later
// runner sharing the cache branches from it.
func TestCancelStopsBetweenMachineRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events []run.MeasureEvent
	prog := &run.Progress{OnMeasure: func(ev run.MeasureEvent) { events = append(events, ev) }}
	cache := run.NewCheckpointCache(0)
	r := &run.Runner{Jobs: 1, Context: ctx, Checkpoints: cache, Progress: prog}
	_, err := run.Map(r, 1, func(int) (apps.Measurement, error) {
		return apps.Measure(r, cancelOn{cancel: cancel}, testConfig(), 8)
	})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "run canceled") {
		t.Fatalf("Map err = %v, want a run canceled error", err)
	}
	if len(events) != 1 {
		t.Fatalf("%d measure events, want 1", len(events))
	}
	if ev := events[0]; ev.ConvCheckpoint != "cold" || ev.APCheckpoint != "" || !errors.Is(ev.Err, context.Canceled) {
		t.Errorf("event (conv, ap, err) = (%q, %q, %v), want (cold, \"\", context canceled)",
			ev.ConvCheckpoint, ev.APCheckpoint, ev.Err)
	}
	if s := prog.Snapshot(); s.CheckpointCold != 1 || s.CheckpointHit != 0 {
		t.Errorf("cold/hit = %d/%d, want 1/0", s.CheckpointCold, s.CheckpointHit)
	}
	r2 := &run.Runner{Jobs: 1, Checkpoints: cache}
	out, err := r2.Simulate(array.Benchmark{}, run.Conventional, testConfig(), 8)
	if err != nil || out.Checkpoint != "branch" {
		t.Errorf("second runner's conventional run = %q, %v, want a branch", out.Checkpoint, err)
	}
}

// Running the same benchmark twice must give identical times: the
// simulator is deterministic.
func TestDeterminism(t *testing.T) {
	for _, b := range []apps.Benchmark{database.Benchmark{}, lcs.Benchmark{}} {
		m1, err := apps.Measure(nil, b, testConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := apps.Measure(nil, b, testConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if m1.ConvTime != m2.ConvTime || m1.RadTime != m2.RadTime {
			t.Fatalf("%s not deterministic: %v/%v vs %v/%v",
				b.Name(), m1.ConvTime, m1.RadTime, m2.ConvTime, m2.RadTime)
		}
	}
}

// The LCS wavefront must record inter-page communication through the
// processor-mediated mechanism.
func TestLCSUsesInterPageReferences(t *testing.T) {
	rad := radram.MustNew(testConfig())
	if err := (lcs.Benchmark{}).Run(rad, 4); err != nil {
		t.Fatal(err)
	}
	if rad.AP.Stats.InterPageTransfers == 0 {
		t.Fatal("wavefront ran without inter-page transfers")
	}
	if rad.CPU.Stats.MediationTime == 0 {
		t.Fatal("no mediation time billed to the processor")
	}
}

// The array's adaptive delete: a sub-page RADram array must not be slower
// than conventional by more than the insert overhead — and specifically
// its deletes run on the processor.
func TestArrayAdaptiveDelete(t *testing.T) {
	rad := radram.MustNew(testConfig())
	arr, err := array.NewActive(rad, 100) // well under one page
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Delete(10); err != nil {
		t.Fatal(err)
	}
	if rad.AP.Stats.Activations != 0 {
		t.Fatal("sub-page delete used page activations; adaptive path not taken")
	}
}

// Partitioning metadata matches Table 2.
func TestPartitioningClasses(t *testing.T) {
	memoryCentric := map[string]bool{
		"array": true, "database": true, "median-kernel": true,
		"median-total": true, "dynamic-prog": true,
	}
	for _, b := range allBenchmarks() {
		want := apps.ProcessorCentric
		if memoryCentric[b.Name()] {
			want = apps.MemoryCentric
		}
		if b.Partitioning() != want {
			t.Errorf("%s partitioning = %v, want %v", b.Name(), b.Partitioning(), want)
		}
		if b.Description() == "" {
			t.Errorf("%s has no description", b.Name())
		}
	}
}

// MPEG at larger width: wide-MMX instruction dispatch must scale T_A with
// page size (Table 4 gives MPEG the workload's largest T_A).
func TestMPEGActivationGrowsWithPage(t *testing.T) {
	small, err := apps.Measure(nil, mpeg.Benchmark{}, radram.DefaultConfig().WithPageBytes(32*1024), 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := apps.Measure(nil, mpeg.Benchmark{}, radram.DefaultConfig().WithPageBytes(128*1024), 4)
	if err != nil {
		t.Fatal(err)
	}
	if big.ActivationTime <= small.ActivationTime {
		t.Fatalf("T_A did not grow with page size: %v -> %v",
			small.ActivationTime, big.ActivationTime)
	}
}

// Accounting invariant: for every benchmark, the RADram processor's
// elapsed time must exactly equal the sum of its ledger buckets — no time
// is ever created or lost by the runtime.
func TestLedgerPartitionsElapsedTime(t *testing.T) {
	for _, b := range allBenchmarks() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			for _, pages := range []float64{0.5, 2} {
				rad := radram.MustNew(testConfig())
				if err := b.Run(rad, pages); err != nil {
					t.Fatal(err)
				}
				if rad.CPU.Now() != rad.CPU.Stats.TotalTime() {
					t.Fatalf("%g pages: elapsed %v != ledger sum %v",
						pages, rad.CPU.Now(), rad.CPU.Stats.TotalTime())
				}
				conv := radram.NewConventional(testConfig())
				if err := b.Run(conv, pages); err != nil {
					t.Fatal(err)
				}
				if conv.CPU.Now() != conv.CPU.Stats.TotalTime() {
					t.Fatalf("conventional %g pages: elapsed %v != ledger sum %v",
						pages, conv.CPU.Now(), conv.CPU.Stats.TotalTime())
				}
			}
		})
	}
}

// Section 1's compatibility claim: "RADram can also function as a
// conventional memory system with negligible performance degradation."
// Running the conventional algorithm on a machine that HAS an Active-Page
// system (but never activates it) must cost exactly the same as on the
// plain conventional machine.
func TestRADramConventionalPassthrough(t *testing.T) {
	for _, b := range []apps.Benchmark{database.Benchmark{}, median.Benchmark{}} {
		plain := radram.NewConventional(testConfig())
		if err := b.Run(plain, 2); err != nil {
			t.Fatal(err)
		}
		// A RADram machine whose AP system sits idle: run the conventional
		// path by hiding the AP system from the benchmark.
		withAP := radram.MustNew(testConfig())
		hidden := &radram.Machine{
			Config: withAP.Config,
			Store:  withAP.Store,
			Hier:   withAP.Hier,
			CPU:    withAP.CPU,
			AP:     nil,
		}
		if err := b.Run(hidden, 2); err != nil {
			t.Fatal(err)
		}
		if withAP.CPU.Now() != plain.CPU.Now() {
			t.Fatalf("%s: conventional code on RADram hardware took %v, plain machine %v",
				b.Name(), withAP.CPU.Now(), plain.CPU.Now())
		}
	}
}
