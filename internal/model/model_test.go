package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"activepages/internal/sim"
)

func us(n uint64) sim.Duration { return sim.Duration(n) * sim.Microsecond }

func TestNonOverlapSinglePage(t *testing.T) {
	p := Params{TA: us(2), TP: us(1), TC: us(100)}
	no := p.NonOverlaps(1)
	// One page: nothing overlaps the computation; NO = TC.
	if no[0] != us(100) {
		t.Fatalf("NO(1) = %v, want 100us", no[0])
	}
}

func TestNonOverlapHiddenByActivations(t *testing.T) {
	// With many pages, activating the rest hides page 1's computation.
	p := Params{TA: us(2), TP: us(1), TC: us(10)}
	no := p.NonOverlaps(100)
	if no[0] != 0 {
		t.Fatalf("NO(1) = %v with 99 later activations (198us > 10us TC)", no[0])
	}
	var total sim.Duration
	for _, v := range no {
		total += v
	}
	if total != 0 {
		t.Fatalf("total NO = %v, want complete overlap", total)
	}
}

func TestNonOverlapRecurrenceMatchesDirectSimulation(t *testing.T) {
	// Cross-check the recurrence against a direct event simulation of the
	// abstract application of Figure 6.
	f := func(taU, tpU, tcU uint16, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		ta := sim.Duration(taU%50+1) * sim.Microsecond
		tp := sim.Duration(tpU%50+1) * sim.Microsecond
		tc := sim.Duration(tcU%500+1) * sim.Microsecond
		p := Params{TA: ta, TP: tp, TC: tc}

		// Direct simulation: activate all pages, then visit in order.
		now := sim.Duration(0)
		done := make([]sim.Duration, k)
		for i := 0; i < k; i++ {
			now += ta
			done[i] = now + tc
		}
		var totalNO sim.Duration
		for i := 0; i < k; i++ {
			if done[i] > now {
				totalNO += done[i] - now
				now = done[i]
			}
			now += tp
		}
		var modelNO sim.Duration
		for _, v := range p.NonOverlaps(k) {
			modelNO += v
		}
		return modelNO == totalNO
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedTime(t *testing.T) {
	p := Params{TA: us(2), TP: us(1), TC: us(10)}
	// K=1: 2 + 1 + 10 = 13us.
	if got := p.PartitionedTime(1); got != us(13) {
		t.Fatalf("T(1) = %v, want 13us", got)
	}
}

func TestSpeedupRegions(t *testing.T) {
	p := Params{TA: us(2), TP: us(1), TC: us(1000), ConvPerPage: us(3000)}
	s1 := p.Speedup(1)
	s10 := p.Speedup(10)
	s100 := p.Speedup(100)
	if !(s1 < s10 && s10 < s100) {
		t.Fatalf("speedup not increasing through scalable region: %v %v %v", s1, s10, s100)
	}
	// Deep saturation: speedup approaches ConvPerPage/(TA+TP) = 1000.
	s100000 := p.Speedup(100000)
	if math.Abs(s100000-1000) > 20 {
		t.Fatalf("saturated speedup = %v, want ~1000", s100000)
	}
}

func TestPagesForOverlap(t *testing.T) {
	// Table 4 semantics: TC / (TA + TP) up to integer effects.
	p := Params{TA: us(2), TP: us(1), TC: us(300)}
	k := p.PagesForOverlap()
	// Bound by the last page: (K-1)*TP >= TC -> K ~ 301.
	if k < 299 || k > 303 {
		t.Fatalf("pages for overlap = %d, want ~301", k)
	}
	if p.totalNO(k) != 0 {
		t.Fatal("reported overlap point still has non-overlap")
	}
	if k > 1 && p.totalNO(k-1) == 0 {
		t.Fatal("overlap point is not minimal")
	}
}

// TestPagesForOverlapMatchesScan checks the closed form against the
// definition: the smallest K whose recurrence leaves no non-overlap, found
// by scanning K upward.
func TestPagesForOverlapMatchesScan(t *testing.T) {
	for ta := sim.Duration(1); ta < 40; ta++ {
		for tp := sim.Duration(1); tp < 40; tp++ {
			for tc := sim.Duration(0); tc < 400; tc += 7 {
				p := Params{TA: ta, TP: tp, TC: tc}
				want := 1
				for p.totalNO(want) > 0 {
					want++
				}
				if got := p.PagesForOverlap(); got != want {
					t.Fatalf("%+v: PagesForOverlap = %d, want %d", p, got, want)
				}
			}
		}
	}
}

// TestPagesForOverlapNoFinitePoint covers a zero activation or
// post-processing time: the first or last page can never hide a nonzero
// computation, so there is no overlap point and the answer is 0. Each call
// runs under a deadline so a solver that searches forever fails instead of
// hanging the test.
func TestPagesForOverlapNoFinitePoint(t *testing.T) {
	for _, c := range []struct {
		p    Params
		want int
	}{
		{Params{TA: sim.Nanosecond, TC: 10 * sim.Nanosecond}, 0},
		{Params{TP: sim.Nanosecond, TC: 10 * sim.Nanosecond}, 0},
		{Params{TC: 10 * sim.Nanosecond}, 0},
		{Params{TA: sim.Nanosecond}, 1},
		{Params{}, 1},
	} {
		done := make(chan int, 1)
		go func() { done <- c.p.PagesForOverlap() }()
		select {
		case got := <-done:
			if got != c.want {
				t.Errorf("%+v: PagesForOverlap = %d, want %d", c.p, got, c.want)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%+v: PagesForOverlap did not return within 2s", c.p)
		}
	}
}

func TestPagesForOverlapTable4ArrayInsert(t *testing.T) {
	// Table 4 row: array-insert TA=2.058us TP=0.387us TC=1.25ms ->
	// 3225 pages for complete overlap. The recurrence should land close
	// (the paper derives the column from these same constants).
	p := Params{
		TA: 2058 * sim.Nanosecond,
		TP: 387 * sim.Nanosecond,
		TC: 1250 * sim.Microsecond,
	}
	k := p.PagesForOverlap()
	if k < 3200 || k > 3260 {
		// Complete overlap is bound by the LAST page, whose computation can
		// only hide behind the earlier pages' post-processing:
		// (K-1)*TP >= TC gives ~3231, matching the paper's 3225.
		t.Fatalf("pages for overlap = %d, want ~3231 (paper: 3225)", k)
	}
}

func TestNonOverlapFractionDecreases(t *testing.T) {
	p := Params{TA: us(2), TP: us(1), TC: us(500)}
	if !(p.NonOverlapFraction(1) > p.NonOverlapFraction(50)) {
		t.Fatal("non-overlap fraction should fall as pages increase")
	}
	if p.NonOverlapFraction(100000) != 0 {
		t.Fatal("deeply saturated application should have zero non-overlap")
	}
}

func TestOverallAmdahl(t *testing.T) {
	// F=0.5, infinite partition speedup -> 2x overall.
	if got := Overall(0.5, 1e12); math.Abs(got-2) > 1e-6 {
		t.Fatalf("Amdahl limit = %v, want 2", got)
	}
	if got := Overall(1.0, 10); math.Abs(got-10) > 1e-9 {
		t.Fatalf("fully partitioned = %v, want 10", got)
	}
	if Overall(0.5, 0) != 0 || Overall(-1, 10) != 0 || Overall(2, 10) != 0 {
		t.Fatal("invalid inputs should yield 0")
	}
}

func TestCorrelatePerfectModel(t *testing.T) {
	p := Params{TA: us(2), TP: us(1), TC: us(500), ConvPerPage: us(900)}
	pages := []int{1, 2, 4, 8, 16, 32, 64, 128}
	meas := make([]float64, len(pages))
	for i, k := range pages {
		meas[i] = p.Speedup(k)
	}
	r, err := Correlate(p, pages, meas)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9999 {
		t.Fatalf("self-correlation = %v, want ~1", r)
	}
}

func TestCorrelateRejectsMismatch(t *testing.T) {
	if _, err := Correlate(Params{}, []int{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestGeneralRecurrenceVariablePages(t *testing.T) {
	// A non-constant workload: one slow page among fast ones. The slow
	// page should carry the non-overlap.
	ta := []sim.Duration{us(1), us(1), us(1)}
	tp := []sim.Duration{us(1), us(1), us(1)}
	tc := []sim.Duration{us(2), us(1000), us(2)}
	no := NonOverlaps(ta, tp, tc)
	if no[0] != 0 {
		t.Fatalf("fast first page should be hidden, NO=%v", no[0])
	}
	if no[1] == 0 {
		t.Fatal("slow page should stall the processor")
	}
	if no[2] != 0 {
		t.Fatalf("page after the slow one should be overlapped, NO=%v", no[2])
	}
}

func TestFitParams(t *testing.T) {
	p := FitParams(us(1), us(2), us(3), us(4))
	if p.TA != us(1) || p.TP != us(2) || p.TC != us(3) || p.ConvPerPage != us(4) {
		t.Fatal("FitParams mangled values")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	r, err := pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-9 {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{11, 9, 7, 5, 3}
	r, _ = pearson(xs, neg)
	if math.Abs(r+1) > 1e-9 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero-variance x accepted")
	}
}

// Property: correlation is symmetric and within [-1, 1].
func TestPearsonProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		xs, ys := raw[:len(raw)/2], raw[len(raw)/2:len(raw)/2*2]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r1, err1 := pearson(xs, ys)
		r2, err2 := pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		return math.Abs(r1-r2) < 1e-9 && r1 >= -1.0000001 && r1 <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
