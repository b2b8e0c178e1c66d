package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/bus"
	"activepages/internal/circuits"
	"activepages/internal/logic"
	"activepages/internal/radram"
	"activepages/internal/report"
	"activepages/internal/run"
)

func TestBenchmarksRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 7 {
		t.Fatalf("have %d benchmarks, want the paper's 7 kernels", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name()] {
			t.Fatalf("duplicate benchmark %s", b.Name())
		}
		seen[b.Name()] = true
	}
	for _, want := range []string{"array", "database", "median-kernel",
		"dynamic-prog", "matrix-simplex", "matrix-boeing", "mpeg-mmx"} {
		if !seen[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	b, err := BenchmarkByName("database")
	if err != nil || b.Name() != "database" {
		t.Fatal("lookup failed")
	}
	if _, err := BenchmarkByName("median-total"); err != nil {
		t.Fatal("median-total should resolve")
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

func TestRunSweepShapes(t *testing.T) {
	b, _ := BenchmarkByName("database")
	s, err := RunSweep(nil, b, DefaultConfig(), []float64{0.5, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 || len(s.Speedups()) != 3 || len(s.NonOverlaps()) != 3 {
		t.Fatal("sweep shapes wrong")
	}
	sp := s.Speedups()
	if sp[2] <= sp[0] {
		t.Fatalf("database speedup not growing: %v", sp)
	}
}

func TestRegionsClassification(t *testing.T) {
	b, _ := BenchmarkByName("matrix-boeing")
	s, err := RunSweep(nil, b, DefaultConfig(), []float64{0.5, 4, 64})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Regions()
	if r[0] != SubPage {
		t.Errorf("0.5 pages classified %v, want sub-page", r[0])
	}
	if r[2] != Saturated {
		t.Errorf("matrix at 64 pages classified %v, want saturated", r[2])
	}
}

func TestFigure3And4Render(t *testing.T) {
	b, _ := BenchmarkByName("database")
	s, err := RunSweep(nil, b, DefaultConfig(), []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	f3 := Figure3For([]*Sweep{s}, "RADram").String()
	if !strings.Contains(f3, "Figure 3") || !strings.Contains(f3, "database") {
		t.Error("figure 3 rendering broken")
	}
	f4 := Figure4For([]*Sweep{s}, "RADram").String()
	if !strings.Contains(f4, "stalled") {
		t.Error("figure 4 rendering broken")
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(DefaultConfig()).String()
	for _, want := range []string{"1 GHz", "64K", "100 MHz", "50 ns", "32 bits / 10 ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2().String()
	if !strings.Contains(out, "memory-centric") || !strings.Contains(out, "processor-centric") {
		t.Error("Table 2 missing partitioning classes")
	}
}

func TestTable3Rendering(t *testing.T) {
	out := Table3().String()
	for _, want := range []string{"Array-delete", "Matrix", "MPEG-MMX", "109", "205"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestTable4ModelCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 sweep is slow")
	}
	rows, err := Table4(run.Parallel(), DefaultConfig(), 8, []float64{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's correlations run 0.83-0.999; require at least a
		// strong fit everywhere.
		if r.Correl < 0.8 {
			t.Errorf("%s model correlation %v < 0.8", r.Benchmark, r.Correl)
		}
		if r.TC == 0 {
			t.Errorf("%s has no measured T_C", r.Benchmark)
		}
		if r.PagesFor <= 0 {
			t.Errorf("%s pages-for-overlap = %d", r.Benchmark, r.PagesFor)
		}
	}
	out := RenderTable4(rows).String()
	if !strings.Contains(out, "T_A (us)") {
		t.Error("Table 4 rendering broken")
	}
}

func TestCacheSweepRuns(t *testing.T) {
	conv, rad, err := CacheSweep(run.Parallel(), []string{"database"}, DefaultConfig(), "L1D",
		[]uint64{32 * 1024, 64 * 1024}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Series) != 1 || len(rad.Series) != 1 {
		t.Fatal("series missing")
	}
	// L2 variant.
	_, _, err = CacheSweep(nil, []string{"database"}, DefaultConfig(), "L2",
		[]uint64{512 * 1024, 1024 * 1024}, 2)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissLatencySweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	f, err := MissLatencySweep(run.Parallel(), DefaultConfig(), DefaultMissLatencies()[:3], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 7 {
		t.Fatalf("%d series", len(f.Series))
	}
}

func TestLogicSpeedSweepSlopes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	f, err := LogicSpeedSweep(nil, DefaultConfig(), []uint64{2, 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Scalable-region apps (database at 8 pages) must slow with slower
	// logic (Figure 9's generalization).
	for _, s := range f.Series {
		if s.Name == "database" && s.Y[1] >= s.Y[0] {
			t.Errorf("database speedup did not fall with 50x slower logic: %v", s.Y)
		}
		// Saturated apps are insensitive: matrix at 8 pages barely moves.
		if s.Name == "matrix-boeing" {
			ratio := s.Y[0] / s.Y[1]
			if ratio > 5 {
				t.Errorf("saturated matrix too sensitive to logic speed: %v", s.Y)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	cfg := DefaultConfig()
	if _, err := AblationActivation(nil, cfg, 4); err != nil {
		t.Error(err)
	}
	if _, err := AblationInterPage(nil, cfg, 4); err != nil {
		t.Error(err)
	}
	if _, err := AblationBind(run.Parallel(), cfg, 2); err != nil {
		t.Error(err)
	}
	if _, err := AblationPageSize(nil, 1024*1024); err != nil {
		t.Error(err)
	}
	if _, err := AblationMMXWidth(nil, cfg, 2); err != nil {
		t.Error(err)
	}
}

func TestSwapCostInPaperWindow(t *testing.T) {
	out := SwapCost(radram.DefaultConfig())
	_ = out.String()
	// Recompute the ratio bounds directly: the paper estimates Active-Page
	// replacement at 2-4x a conventional page move.
	b := bus.New(radram.DefaultConfig().Mem.Bus)
	move := b.TransferTime(radram.DefaultConfig().AP.PageBytes)
	for _, d := range circuits.All() {
		r := logic.Synthesize(d)
		total := move + logic.SerialReconfigurationTime(r, logic.DefaultSerialConfigBps)
		ratio := float64(total) / float64(move)
		if ratio < 2 || ratio > 4.5 {
			t.Errorf("%s swap ratio %.2f outside the paper's 2-4x window", r.Name, ratio)
		}
	}
}

func TestPagingStudyShape(t *testing.T) {
	f, err := PagingStudy(nil, 8, 3500)
	if err != nil {
		t.Fatal(err)
	}
	conv, act := f.Series[0].Y, f.Series[1].Y
	// Working set within the resident set: only cold faults (cheap).
	if conv[0] >= conv[3] {
		t.Fatal("paging overhead should grow past the resident set")
	}
	// Active pages always cost at least as much as conventional.
	for i := range conv {
		if act[i] < conv[i] {
			t.Fatalf("point %d: active (%v) cheaper than conventional (%v)",
				i, act[i], conv[i])
		}
	}
	// Thrashing region: the Active-Page penalty is visible.
	if act[4] <= conv[4] {
		t.Fatal("no reconfiguration penalty while thrashing")
	}
	// A canceled runner gets the error, not a figure of zeros.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if f, err := PagingStudy(&run.Runner{Context: ctx}, 8, 3500); f != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled PagingStudy = %v, %v, want no figure and a canceled error", f, err)
	}
}

func TestSMPStudyScales(t *testing.T) {
	f, err := SMPStudy(nil, DefaultConfig(), 32, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	y := f.Series[0].Y
	// More processors must never be slower, and at a saturating size they
	// must help measurably.
	if !(y[1] < y[0] && y[2] <= y[1]) {
		t.Fatalf("SMP did not scale: %v", y)
	}
}

func TestCrossoverStudyConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("crossover sweep is slow")
	}
	sweep := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	rows, err := CrossoverStudy(run.Parallel(), DefaultConfig(), 8, sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch {
		case r.MeasuredPages > 0:
			// Saturated in-sweep: the model's prediction must agree within
			// an order of magnitude, and only err optimistically (late).
			// The constant-parameter model omits mediation and cache-
			// pressure growth, so it systematically overestimates the
			// boundary for the processor-centric kernels — the same
			// mismatch visible between the paper's own Table 4 constants
			// and its Figure 3 saturation claims for matrix (8-9 pages).
			lo, hi := r.MeasuredPages/4, r.MeasuredPages*8
			if float64(r.PredictedPages) < lo || float64(r.PredictedPages) > hi {
				t.Errorf("%s: measured saturation at %g pages, model predicts %d",
					r.Benchmark, r.MeasuredPages, r.PredictedPages)
			}
		default:
			// Never saturated: the model must also place the boundary past
			// a good chunk of the sweep.
			if float64(r.PredictedPages) < 64 {
				t.Errorf("%s: never saturated in-sweep but model predicts %d pages",
					r.Benchmark, r.PredictedPages)
			}
		}
	}
}

// TestParallelSweepMatchesSerial: the rendered Figure 3/4 output of a
// parallel sweep must be byte-identical to the serial run, and the merged
// metrics snapshot must not depend on the worker count.
func TestParallelSweepMatchesSerial(t *testing.T) {
	pages := []float64{0.5, 2, 8}
	serial := run.Serial().WithMetrics()
	s1, err := RunAllSweeps(serial, DefaultConfig(), pages)
	if err != nil {
		t.Fatal(err)
	}
	parallel := (&run.Runner{Jobs: 8}).WithMetrics()
	s2, err := RunAllSweeps(parallel, DefaultConfig(), pages)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Figure3For(s2, "RADram").String(), Figure3For(s1, "RADram").String(); got != want {
		t.Errorf("parallel Figure 3 differs from serial:\n%s\nvs\n%s", got, want)
	}
	if got, want := Figure4For(s2, "RADram").String(), Figure4For(s1, "RADram").String(); got != want {
		t.Errorf("parallel Figure 4 differs from serial")
	}
	j1, err := serial.Metrics.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := parallel.Metrics.Snapshot().JSON()
	if string(j1) != string(j2) {
		t.Errorf("merged metrics depend on worker count:\n%s\nvs\n%s", j2, j1)
	}
	if serial.Metrics.Runs() != int64(7*len(pages)) {
		t.Errorf("collected %d runs, want %d", serial.Metrics.Runs(), 7*len(pages))
	}
}

// TestEveryBenchmarkFitsMinimumPage runs every benchmark at the smallest
// page core.Config.Validate accepts, over the quick page axis, on the
// conventional and RADram machines and on every other backend it is ported
// to: no page function may overrun its page, and every result must verify.
func TestEveryBenchmarkFitsMinimumPage(t *testing.T) {
	base := radram.DefaultConfig().WithPageBytes(8 << 10)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range BenchmarkNames() {
		b, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range radram.Backends() {
			if !apps.Supports(b, backend.Name()) {
				continue
			}
			cfg := base.WithBackend(backend.Model)
			for _, pages := range QuickPagePoints() {
				if _, err := apps.Measure(nil, b, cfg, pages); err != nil {
					t.Errorf("%s on %s, %g pages: %v", name, backend.Name(), pages, err)
				}
			}
		}
	}
}

// TestCatalogNamespaces measures a quick ported benchmark on every
// catalog backend and checks where its metrics land: the conventional
// machine's rows under "conv.", the Active-Page machine's under the row's
// namespace and nowhere else, so report.BackendOf names the backend.
func TestCatalogNamespaces(t *testing.T) {
	b, err := BenchmarkByName("array")
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range radram.Backends() {
		if !apps.Supports(b, bk.Name()) {
			t.Fatalf("array has no %s port", bk.Name())
		}
		r := run.Serial().WithMetrics()
		if _, err := apps.Measure(r, b, DefaultConfig().WithBackend(bk.Model), QuickPagePoints()[0]); err != nil {
			t.Fatalf("%s: %v", bk.Name(), err)
		}
		snap := r.Metrics.Groups()[b.Name()]
		var ap int
		for k := range snap {
			switch {
			case strings.HasPrefix(k, bk.Namespace+"."):
				ap++
			case !strings.HasPrefix(k, "conv."):
				t.Errorf("%s: key %q is under neither conv. nor %s.", bk.Name(), k, bk.Namespace)
			}
		}
		if ap == 0 {
			t.Errorf("%s: no Active-Page rows under %s.", bk.Name(), bk.Namespace)
		}
		if got := report.BackendOf(snap); got != bk.Name() {
			t.Errorf("%s: BackendOf = %q", bk.Name(), got)
		}
	}
}

// recorder is a benchmark that simulates nothing and logs every machine run
// it is handed: name, problem size, and machine kind.
type recorder struct {
	name string
	log  *[]string
}

func (b recorder) Name() string                  { return b.name }
func (recorder) Partitioning() apps.Partitioning { return apps.MemoryCentric }
func (recorder) Description() string             { return "records its machine runs" }
func (b recorder) Run(m *radram.Machine, pages float64) error {
	kind := "ap"
	if m.AP == nil {
		kind = "conv"
	}
	*b.log = append(*b.log, fmt.Sprintf("%s@%g:%s", b.name, pages, kind))
	return nil
}

// TestGridOrderIsBenchmarkMajor pins the order a serial runner measures a
// grid in: benchmark-major, the conventional run before the Active-Page
// run at each point. Under a checkpoint cache that order decides which
// measure of a key simulates cold and which one branches.
func TestGridOrderIsBenchmarkMajor(t *testing.T) {
	var log []string
	bs := []apps.Benchmark{recorder{"a", &log}, recorder{"b", &log}}
	pages := []float64{1, 2, 3}
	g, err := grid(run.Serial(), bs, len(pages), func(i int) (radram.Config, float64) {
		return DefaultConfig(), pages[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for bi, b := range bs {
		for i, p := range pages {
			want = append(want, fmt.Sprintf("%s@%g:conv", b.Name(), p), fmt.Sprintf("%s@%g:ap", b.Name(), p))
			if m := g[bi][i]; m.Benchmark != b.Name() || m.Pages != p {
				t.Errorf("g[%d][%d] is %s at %g pages, want %s at %g", bi, i, m.Benchmark, m.Pages, b.Name(), p)
			}
		}
	}
	if got := strings.Join(log, " "); got != strings.Join(want, " ") {
		t.Errorf("machine runs in order\n%s\nwant\n%s", got, strings.Join(want, " "))
	}
}
