package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"activepages/internal/experiments"
	"activepages/internal/serve"
)

// pageAxis is the superpage-size axis every spec population spans; 0 is
// the daemon's scaled default.
var pageAxis = []uint64{0, 16384, 32768, 65536, 131072, 262144}

// hotBenchmarks are the kernels of the hot set, in popularity order
// within each page size.
var hotBenchmarks = []string{"array", "database", "median-kernel"}

// specKey names a spec in reference files and reports. Unlike
// serve.Request.String it spells out every field, so two specs that
// differ only in a flag never share a key.
func specKey(r serve.Request) string {
	bk := r.Backend
	if bk == "" {
		bk = "radram"
	}
	return fmt.Sprintf("%s quick=%t pb=%d regions=%t l2=%t backend=%s",
		r.Experiment, r.Quick, r.PageBytes, r.Regions, r.L2, bk)
}

// apbenchArgs is the batch invocation that prints exactly the output the
// daemon stores for spec r.
func apbenchArgs(r serve.Request) []string {
	args := []string{"-experiment", r.Experiment, "-jobs", "1"}
	if r.Quick {
		args = append(args, "-quick")
	}
	if r.PageBytes != 0 {
		args = append(args, "-pagebytes", fmt.Sprint(r.PageBytes))
	}
	if r.Regions {
		args = append(args, "-regions")
	}
	if r.L2 {
		args = append(args, "-l2")
	}
	if r.Backend != "" {
		args = append(args, "-backend", r.Backend)
	}
	return args
}

// hotSpecs is the fleet's hot set: the three hot kernels across the page
// axis, quick, ranked in generation order (rank 0 is the most popular) —
// the same 18-spec population apload -zipf draws from.
func hotSpecs() []serve.Request {
	var out []serve.Request
	for _, pb := range pageAxis {
		for _, e := range hotBenchmarks {
			out = append(out, serve.Request{Experiment: e, Quick: true, PageBytes: pb})
		}
	}
	return out
}

// freshGroups is the population of never-before-seen specs, grouped by
// cost: one group per kernel (every page size × flag variant; the hot
// kernels contribute only flag variants, since their plain spec is
// already hot) plus one SIMDRAM group. Flag-only variants simulate
// exactly what their plain spec did, so on a shard that ran the plain
// spec they branch from its checkpoint cache. A spec equivalent to an
// earlier one under serve.SpecKey (the scaled default page size spelled
// out) is left out: it would be a cache hit, not a fresh spec.
func freshGroups() [][]serve.Request {
	seen := map[string]bool{}
	hot := map[string]bool{}
	for _, r := range hotSpecs() {
		seen[serve.SpecKey(r)] = true
		hot[r.Experiment] = true
	}
	add := func(g []serve.Request, r serve.Request) []serve.Request {
		if k := serve.SpecKey(r); !seen[k] {
			seen[k] = true
			g = append(g, r)
		}
		return g
	}
	type flags struct{ regions, l2 bool }
	all := []flags{{false, false}, {true, false}, {false, true}, {true, true}}
	var groups [][]serve.Request
	for _, e := range experiments.BenchmarkNames() {
		var g []serve.Request
		for _, pb := range pageAxis {
			for _, f := range all {
				if hot[e] && !f.regions && !f.l2 {
					continue
				}
				g = add(g, serve.Request{Experiment: e, Quick: true, PageBytes: pb, Regions: f.regions, L2: f.l2})
			}
		}
		groups = append(groups, g)
	}
	var sd []serve.Request
	for _, pb := range pageAxis {
		for _, e := range hotBenchmarks {
			sd = add(sd, serve.Request{Experiment: e, Quick: true, PageBytes: pb, Backend: "simdram"})
		}
	}
	return append(groups, sd)
}

// freshPopulation orders the fresh specs so that any prefix holds nearly
// equal shares of every group: each round visits every non-exhausted
// group once, in a fixed pseudo-random order, taking the group's next
// spec from a fixed pseudo-random permutation of it.
func freshPopulation() []serve.Request {
	rng := rand.New(rand.NewSource(1))
	groups := freshGroups()
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	var out []serve.Request
	next := make([]int, len(groups))
	for {
		took := false
		for _, gi := range rng.Perm(len(groups)) {
			if next[gi] < len(groups[gi]) {
				out = append(out, groups[gi][next[gi]])
				next[gi]++
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// freshSequence is the k fresh specs a churn run submits, in seeded
// order. Which specs they are does not depend on the seed, so every run
// simulates the same cost mix; the seed decides when each one arrives.
func freshSequence(seed int64, k int) []serve.Request {
	pop := freshPopulation()
	if k > len(pop) {
		k = len(pop)
	}
	seq := pop[:k]
	rand.New(rand.NewSource(seed)).Shuffle(k, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverse CDF over the cumulative weights, from its own seeded source.
type zipf struct {
	rng *rand.Rand
	cum []float64
}

func newZipf(s float64, n int, seed int64) *zipf {
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	return &zipf{rng: rand.New(rand.NewSource(seed)), cum: cum}
}

func (z *zipf) next() int {
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// zipfSkew is the popularity skew of the hot set.
const zipfSkew = 1.1

// freshEvery places one fresh spec at every freshEvery-th request of a
// churn schedule.
const freshEvery = 250

// planned is one request of an open-loop schedule.
type planned struct {
	req   serve.Request
	body  []byte
	fresh bool
}

// hotPlan is n requests drawn Zipf(zipfSkew) from the hot set. Different
// stream ids give independent sequences from one seed.
func hotPlan(seed int64, stream, n int) []planned {
	return churnPlan(seed, stream, n, nil)
}

// churnPlan is hotPlan with fresh[k] replacing the k-th request whose
// index is congruent to freshEvery-1, while fresh specs remain.
func churnPlan(seed int64, stream, n int, fresh []serve.Request) []planned {
	hot := hotSpecs()
	bodies := make([][]byte, len(hot))
	for i, r := range hot {
		bodies[i] = mustJSON(r)
	}
	z := newZipf(zipfSkew, len(hot), seed*1000+int64(stream))
	out := make([]planned, n)
	k := 0
	for i := range out {
		if i%freshEvery == freshEvery-1 && k < len(fresh) {
			out[i] = planned{req: fresh[k], body: mustJSON(fresh[k]), fresh: true}
			k++
			continue
		}
		r := z.next()
		out[i] = planned{req: hot[r], body: bodies[r]}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request structs are marshaled
	}
	return b
}
