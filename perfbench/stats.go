package main

import (
	"math"
	"sort"
	"time"
)

// tailPct is the percentile every timing reports as its tail. Higher
// percentiles of these workloads swing by 2-3x between runs of one seed
// (a single collision of a hit with a garbage collection or a cold
// simulation decides them), which no regression bound could absorb; the
// report prints p99 beside it.
const tailPct = 90

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns tailPct when at least minBeyond of n samples lie
// above its rank, and ok=false otherwise: the caller then reports the
// maximum and says so.
func tailPercentile(n int) (p float64, ok bool) {
	if beyond(n, tailPct) >= minBeyond {
		return tailPct, true
	}
	return 100, false
}

// beyond counts the samples ranked above the nearest-rank p-th percentile
// of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// ceil(p/100 * n), clamped to [1, n]. The product is rounded first so
// float error cannot push an exact rank (99.9% of 10000) up by one.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(math.Round(p/100*float64(n)*1e6) / 1e6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), p)-1]
}

// median returns the median of xs, averaging the two middle samples of an
// even-sized sample, without reordering xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// timing is one latency sample set reduced the way every report states a
// timing: median, the tail percentile (or the maximum when too few samples
// lie beyond it), and the count.
type timing struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	TailOK bool    // at least minBeyond samples lie beyond the tail
	P99    float64 // nearest-rank p99, for the report
}

func summarize(xs []float64) timing {
	p, ok := tailPercentile(len(xs))
	s := append([]float64(nil), xs...)
	return timing{N: len(xs), P50: median(xs), TailP: p, TailOK: ok,
		Tail: percentile(s, p), P99: percentile(s, 99)}
}

// tailWindow is how many consecutive requests of an open-loop schedule
// form one window of windowTail: at tailPct, 100 lie beyond each window's
// tail.
const tailWindow = 1000

// windowTail splits xs, in schedule order, into consecutive windows of
// tailWindow samples and returns the median of the windows' tailPct
// percentiles, with the window count. A few windows in which the host
// stalled or several cold simulations overlapped move one run's overall
// percentile by half; they move the median window's by little. With less
// than one full window it falls back to the overall tail.
func windowTail(xs []float64) (float64, int) {
	var tails []float64
	for w := 0; w+tailWindow <= len(xs); w += tailWindow {
		tails = append(tails, percentile(append([]float64(nil), xs[w:w+tailWindow]...), tailPct))
	}
	if len(tails) == 0 {
		return summarize(xs).Tail, 0
	}
	return median(tails), len(tails)
}

// ratio is num/den, defined as 0 when the denominator is 0 so a layer
// that did no work reports a zero share instead of NaN (which JSON cannot
// carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histQuantile estimates the q-th quantile (0..1) of a log2-bucketed
// histogram in nanoseconds. buckets[i] counts samples in bucket i, whose
// range in picoseconds is [2^(i-1), 2^i - 1] (bucket 0 holds zeros), the
// layout internal/obs snapshots use. Within the bucket holding the rank
// the estimate interpolates linearly, so it moves continuously with the
// data instead of snapping to bucket bounds.
func histQuantile(buckets map[int]float64, q float64) float64 {
	var total float64
	idx := make([]int, 0, len(buckets))
	for i, c := range buckets {
		total += c
		idx = append(idx, i)
	}
	if total == 0 {
		return 0
	}
	sort.Ints(idx)
	rank := q * total
	var cum float64
	for _, i := range idx {
		c := buckets[i]
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			hi := math.Ldexp(1, i) - 1
			frac := (rank - cum) / c
			return (lo + frac*(hi-lo)) / 1000 // ps -> ns
		}
		cum += c
	}
	last := idx[len(idx)-1]
	return (math.Ldexp(1, last) - 1) / 1000
}
