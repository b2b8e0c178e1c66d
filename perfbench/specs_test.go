package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"activepages/internal/serve"
)

func TestFreshPopulationIsFreshAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range hotSpecs() {
		seen[serve.SpecKey(r)] = true
	}
	pop := freshPopulation()
	for _, r := range pop {
		if k := serve.SpecKey(r); seen[k] {
			t.Fatalf("%s is equivalent to a hot or earlier fresh spec", specKey(r))
		} else {
			seen[k] = true
		}
	}
	total := 0
	for _, g := range freshGroups() {
		total += len(g)
	}
	if len(pop) != total {
		t.Errorf("population order holds %d specs, groups %d", len(pop), total)
	}
	if !reflect.DeepEqual(pop, freshPopulation()) {
		t.Error("the population order is not fixed")
	}
}

func TestFreshPopulationIsStratified(t *testing.T) {
	groups := freshGroups()
	group := map[serve.Request]int{}
	smallest := len(groups[0])
	for gi, g := range groups {
		smallest = min(smallest, len(g))
		for _, r := range g {
			group[r] = gi
		}
	}
	// While no group is exhausted, every round of len(groups) specs visits
	// every group once, so any run's misses carry the same cost mix.
	pop := freshPopulation()
	for round := 0; round < smallest; round++ {
		hit := map[int]bool{}
		for _, r := range pop[round*len(groups) : (round+1)*len(groups)] {
			hit[group[r]] = true
		}
		if len(hit) != len(groups) {
			t.Errorf("round %d visits %d of %d groups", round, len(hit), len(groups))
		}
	}
}

func TestFreshSequenceSeedsOrderNotMembership(t *testing.T) {
	a, b := freshSequence(7, 40), freshSequence(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two fresh sequences")
	}
	c := freshSequence(8, 40)
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same order")
	}
	in := map[serve.Request]bool{}
	for _, r := range a {
		in[r] = true
	}
	for _, r := range c {
		if !in[r] {
			t.Errorf("seed 8 draws %s, which seed 7 does not", specKey(r))
		}
	}
	if got := len(freshSequence(1, 1<<20)); got != len(freshPopulation()) {
		t.Errorf("an oversized request gave %d specs, want the whole population", got)
	}
}

func TestPlansAreDeterministic(t *testing.T) {
	fresh := freshSequence(3, 8)
	p1 := churnPlan(3, 0, 2000, fresh)
	if !reflect.DeepEqual(p1, churnPlan(3, 0, 2000, fresh)) {
		t.Fatal("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(hotPlan(3, 0, 500), hotPlan(3, 1, 500)) {
		t.Error("two streams of one seed gave the same request sequence")
	}
	if reflect.DeepEqual(hotPlan(3, 0, 500), hotPlan(4, 0, 500)) {
		t.Error("two seeds gave the same request sequence")
	}
	k := 0
	counts := map[string]int{}
	for i, p := range p1 {
		if want := i%freshEvery == freshEvery-1; p.fresh != want {
			t.Fatalf("request %d fresh=%t, want %t", i, p.fresh, want)
		}
		if p.fresh {
			if p.req != fresh[k] {
				t.Fatalf("fresh request %d is %s, want %s", k, specKey(p.req), specKey(fresh[k]))
			}
			k++
		} else {
			counts[specKey(p.req)]++
		}
		var got serve.Request
		if err := json.Unmarshal(p.body, &got); err != nil || got != p.req {
			t.Fatalf("request %d body %s does not encode %s", i, p.body, specKey(p.req))
		}
	}
	// Zipf: the rank-0 spec is the most requested.
	top := specKey(hotSpecs()[0])
	for s, n := range counts {
		if n > counts[top] {
			t.Errorf("%s requested %d times, more than the rank-0 spec (%d)", s, n, counts[top])
		}
	}
}

func TestEverySpecHasAReference(t *testing.T) {
	b, err := os.ReadFile("ref/specs.json")
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string]string
	if err := json.Unmarshal(b, &refs); err != nil {
		t.Fatal(err)
	}
	all := hotSpecs()
	for _, g := range freshGroups() {
		all = append(all, g...)
	}
	for _, r := range all {
		if len(refs[specKey(r)]) != 64 {
			t.Errorf("no sha256 reference for %s", specKey(r))
		}
	}
	if len(refs) != len(all) {
		t.Errorf("ref/specs.json holds %d digests for %d specs", len(refs), len(all))
	}
}
