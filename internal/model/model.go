// Package model implements the analytic performance model of Section 7.4
// (Figures 6 and 7): an abstract partitioned application in which the
// processor activates K Active Pages in sequence (T_A each), each page
// computes for T_C, and the processor revisits pages in order, stalling
// NO(i) before doing T_P of post-processing per page.
//
// The formulas (Figure 7):
//
//	NO(i) = max(0, T_C(i) - (Σ_{n=i+1..K} T_A(n) + Σ_{n=1..i-1} T_P(n)
//	                         + Σ_{n=1..i-1} NO(n)))
//	Speedup_partitioned = T_conv·α·K / Σ_{i=1..K} (T_A(i)+T_P(i)+NO(i))
//	Speedup_overall     = 1 / ((1-F) + F/Speedup_partitioned)
//
// The package provides both the general form (per-page vectors) and the
// constant-parameter simplification Table 4 uses, plus the
// pages-for-complete-overlap solver and the model-vs-simulation
// correlation of Table 4's rightmost column.
package model

import (
	"fmt"
	"math"

	"activepages/internal/sim"
)

// Params is the constant-per-page simplification of the abstract
// application: activation time, post-activated processor time, per-page
// Active-Page computation time, and the conventional system's time per
// page of data (T_conv · α).
type Params struct {
	TA sim.Duration
	TP sim.Duration
	TC sim.Duration
	// ConvPerPage is the conventional execution time per page of data.
	ConvPerPage sim.Duration
}

// NonOverlaps evaluates the NO(i) recurrence for K pages with constant
// parameters, returning the per-page non-overlap times.
func (p Params) NonOverlaps(k int) []sim.Duration {
	no := make([]sim.Duration, k)
	var sumNO, sumTP sim.Duration
	suffixTA := sim.Duration(k) * p.TA
	for i := 0; i < k; i++ {
		suffixTA -= p.TA // activations for pages i+1..K
		otherWork := suffixTA + sumTP + sumNO
		if p.TC > otherWork {
			no[i] = p.TC - otherWork
		}
		sumNO += no[i]
		sumTP += p.TP
	}
	return no
}

// totalNO is Σ NO(i) for constant parameters, without materializing the
// per-page vector.
func (p Params) totalNO(k int) sim.Duration {
	var sumNO, sumTP sim.Duration
	suffixTA := sim.Duration(k) * p.TA
	for i := 0; i < k; i++ {
		suffixTA -= p.TA
		otherWork := suffixTA + sumTP + sumNO
		if p.TC > otherWork {
			sumNO += p.TC - otherWork
		}
		sumTP += p.TP
	}
	return sumNO
}

// NonOverlaps evaluates the general NO(i) recurrence of Figure 7 for
// per-page vectors (all of length K).
func NonOverlaps(ta, tp, tc []sim.Duration) []sim.Duration {
	k := len(ta)
	no := make([]sim.Duration, k)
	var sumNO, sumTP sim.Duration
	// Suffix sums of activation time for pages after i.
	var suffixTA sim.Duration
	for n := 0; n < k; n++ {
		suffixTA += ta[n]
	}
	for i := 0; i < k; i++ {
		suffixTA -= ta[i] // activations for pages i+1..K
		otherWork := suffixTA + sumTP + sumNO
		if tc[i] > otherWork {
			no[i] = tc[i] - otherWork
		}
		sumNO += no[i]
		sumTP += tp[i]
	}
	return no
}

// PartitionedTime is the model's execution time for K pages:
// Σ (T_A + T_P + NO).
func (p Params) PartitionedTime(k int) sim.Duration {
	return p.totalNO(k) + sim.Duration(k)*(p.TA+p.TP)
}

// Speedup is Speedup_partitioned for K pages.
func (p Params) Speedup(k int) float64 {
	t := p.PartitionedTime(k)
	if t == 0 {
		return 0
	}
	return float64(sim.Duration(k)*p.ConvPerPage) / float64(t)
}

// NonOverlapFraction is the model's prediction of Figure 4's metric.
func (p Params) NonOverlapFraction(k int) float64 {
	t := p.PartitionedTime(k)
	if t == 0 {
		return 0
	}
	return float64(p.totalNO(k)) / float64(t)
}

// PagesForOverlap returns the minimum problem size, in pages, at which the
// processor is completely overlapped with Active-Page computation — the
// last column group of Table 4; beyond it the application is in the
// saturated region. It returns 0 when there is no finite overlap point:
// with T_C > 0 and T_A or T_P zero, the first or last page can never hide.
//
// With constant parameters and no earlier stall, page i's computation
// hides behind (K-1-i)·T_A + i·T_P of processor work. That is linear in i,
// so the first or the last page binds, and Σ NO(K) = 0 exactly when
// T_C <= (K-1)·min(T_A, T_P). The smallest such K is
// ⌈T_C / min(T_A, T_P)⌉ + 1, or 1 when T_C = 0.
func (p Params) PagesForOverlap() int {
	if p.TC == 0 {
		return 1
	}
	m := min(p.TA, p.TP)
	if m == 0 {
		return 0
	}
	return int((p.TC-1)/m) + 2 // ⌈T_C/m⌉ + 1, without overflowing T_C+m
}

// Overall applies Amdahl's Law (Figure 7's third equation): fraction is
// the partitioned share of the application.
func Overall(fraction, partitionedSpeedup float64) float64 {
	if partitionedSpeedup <= 0 || fraction < 0 || fraction > 1 {
		return 0
	}
	return 1 / ((1 - fraction) + fraction/partitionedSpeedup)
}

// Correlate computes the Pearson correlation between the model's predicted
// speedups and measured speedups across problem sizes — Table 4's
// rightmost column.
func Correlate(p Params, pages []int, measured []float64) (float64, error) {
	if len(pages) != len(measured) {
		return 0, fmt.Errorf("model: %d sizes but %d measurements", len(pages), len(measured))
	}
	pred := make([]float64, len(pages))
	for i, k := range pages {
		pred[i] = p.Speedup(k)
	}
	return pearson(pred, measured)
}

// pearson returns the correlation coefficient between xs and ys. It
// returns an error for mismatched lengths, fewer than two points, or a
// zero-variance input (where correlation is undefined).
func pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("model: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("model: correlation needs at least 2 points, have %d", len(xs))
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("model: zero variance input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// FitParams derives constant model parameters from a measurement at a
// small-to-medium problem size, as Section 7.4.2 prescribes: average T_A,
// T_P, and T_C measured from one run, plus the conventional per-page time.
func FitParams(ta, tp, tc, convPerPage sim.Duration) Params {
	return Params{TA: ta, TP: tp, TC: tc, ConvPerPage: convPerPage}
}
