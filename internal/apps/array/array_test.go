package array

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"activepages/internal/radram"
)

func testMachines(t *testing.T) (*radram.Machine, *radram.Machine) {
	t.Helper()
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	return radram.NewConventional(cfg), radram.MustNew(cfg)
}

// mirror checks an Array against a reference slice at every position.
func mirror(t *testing.T, arr Array, ref []uint32) {
	t.Helper()
	if arr.Len() != len(ref) {
		t.Fatalf("len = %d, want %d", arr.Len(), len(ref))
	}
	for i, want := range ref {
		if got := arr.Get(i); got != want {
			t.Fatalf("element %d = %d, want %d", i, got, want)
		}
	}
}

func newPair(t *testing.T, n int) (Array, Array, []uint32) {
	t.Helper()
	conv, rad := testMachines(t)
	c, err := NewConventional(conv, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewActive(rad, n)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]uint32, n)
	for i := range ref {
		ref[i] = uint32(i) * 3
	}
	return c, a, ref
}

func TestInsertWithinOnePage(t *testing.T) {
	_, a, ref := newPair(t, 100)
	if err := a.Insert(50, 999); err != nil {
		t.Fatal(err)
	}
	ref = append(ref[:50], append([]uint32{999}, ref[50:]...)...)
	mirror(t, a, ref)
}

func TestInsertCrossesPages(t *testing.T) {
	// 64 KB pages hold 16320 elements; 3 pages' worth forces cross-page
	// boundary moves.
	conv, rad := testMachines(t)
	n := 16320*2 + 100
	c, _ := NewConventional(conv, n)
	a, _ := NewActive(rad, n)
	ref := make([]uint32, n)
	for i := range ref {
		ref[i] = uint32(i) * 3
	}
	for _, arr := range []Array{c, a} {
		if err := arr.Insert(5, 111); err != nil {
			t.Fatal(err)
		}
	}
	ref = append(ref[:5], append([]uint32{111}, ref[5:]...)...)
	// Check around every page boundary and the insertion point.
	for _, pos := range []int{0, 4, 5, 6, 16319, 16320, 16321, 32639, 32640, n} {
		if got := a.Get(pos); got != ref[pos] {
			t.Fatalf("active: element %d = %d, want %d", pos, got, ref[pos])
		}
		if got := c.Get(pos); got != ref[pos] {
			t.Fatalf("conventional: element %d = %d, want %d", pos, got, ref[pos])
		}
	}
	if rad.AP.Stats.Activations == 0 {
		t.Fatal("cross-page insert used no page activations")
	}
}

func TestDeleteCrossesPages(t *testing.T) {
	conv, rad := testMachines(t)
	n := 16320*2 + 50
	c, _ := NewConventional(conv, n)
	a, _ := NewActive(rad, n)
	ref := make([]uint32, n)
	for i := range ref {
		ref[i] = uint32(i) * 3
	}
	for _, arr := range []Array{c, a} {
		if err := arr.Delete(7); err != nil {
			t.Fatal(err)
		}
	}
	copy(ref[7:], ref[8:])
	ref = ref[:n-1]
	for _, pos := range []int{0, 6, 7, 8, 16318, 16319, 16320, 32638, 32639, len(ref) - 1} {
		if got := a.Get(pos); got != ref[pos] {
			t.Fatalf("active: element %d = %d, want %d", pos, got, ref[pos])
		}
		if got := c.Get(pos); got != ref[pos] {
			t.Fatalf("conventional: element %d = %d, want %d", pos, got, ref[pos])
		}
	}
}

func TestCountMatchesReference(t *testing.T) {
	c, a, ref := newPair(t, 5000)
	for _, key := range []uint32{0, 3, 2997, 1, 99999} {
		want := 0
		for _, v := range ref {
			if v == key {
				want++
			}
		}
		for name, arr := range map[string]Array{"conv": c, "active": a} {
			got, err := arr.Count(key)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s count(%d) = %d, want %d", name, key, got, want)
			}
		}
	}
}

func TestAppendAtEnd(t *testing.T) {
	_, a, ref := newPair(t, 100)
	if err := a.Insert(100, 777); err != nil {
		t.Fatal(err)
	}
	ref = append(ref, 777)
	mirror(t, a, ref)
}

func TestInsertAtZero(t *testing.T) {
	c, a, ref := newPair(t, 200)
	for _, arr := range []Array{c, a} {
		if err := arr.Insert(0, 5); err != nil {
			t.Fatal(err)
		}
	}
	ref = append([]uint32{5}, ref...)
	mirror(t, a, ref)
	mirror(t, c, ref)
}

// Property: a random op sequence leaves both backends identical to a
// reference slice.
func TestRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		conv, rad := testMachines(t)
		n := 500 + rng.Intn(2000)
		c, _ := NewConventional(conv, n)
		a, _ := NewActive(rad, n)
		ref := make([]uint32, n)
		for i := range ref {
			ref[i] = uint32(i) * 3
		}
		for op := 0; op < 12; op++ {
			switch rng.Intn(3) {
			case 0:
				pos := rng.Intn(len(ref) + 1)
				v := rng.Uint32()
				c.Insert(pos, v)
				a.Insert(pos, v)
				ref = append(ref, 0)
				copy(ref[pos+1:], ref[pos:])
				ref[pos] = v
			case 1:
				if len(ref) == 0 {
					continue
				}
				pos := rng.Intn(len(ref))
				c.Delete(pos)
				a.Delete(pos)
				copy(ref[pos:], ref[pos+1:])
				ref = ref[:len(ref)-1]
			default:
				key := uint32(rng.Intn(n*3)) / 3 * 3
				want := 0
				for _, v := range ref {
					if v == key {
						want++
					}
				}
				g1, _ := c.Count(key)
				g2, _ := a.Count(key)
				if g1 != want || g2 != want {
					return false
				}
			}
		}
		// Spot-check a dozen positions.
		for k := 0; k < 12 && len(ref) > 0; k++ {
			pos := rng.Intn(len(ref))
			if a.Get(pos) != ref[pos] || c.Get(pos) != ref[pos] {
				return false
			}
		}
		return a.Len() == len(ref) && c.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRebindHappensPerOperationClass(t *testing.T) {
	_, rad := testMachines(t)
	a, err := NewActive(rad, 20000)
	if err != nil {
		t.Fatal(err)
	}
	a.Insert(5, 1)
	binds := rad.AP.Stats.Binds
	a.Insert(6, 2) // same class: no rebind
	if rad.AP.Stats.Binds != binds {
		t.Fatal("second insert re-bound")
	}
	a.Count(3) // class switch: rebind
	if rad.AP.Stats.Binds != binds+1 {
		t.Fatal("count did not re-bind")
	}
}

func TestConventionalTimingScalesWithTail(t *testing.T) {
	conv := radram.NewConventional(radram.DefaultConfig().WithPageBytes(64 * 1024))
	c, _ := NewConventional(conv, 100000)
	before := conv.Elapsed()
	c.Insert(0, 1) // moves the whole array
	headCost := conv.Elapsed() - before
	before = conv.Elapsed()
	c.Insert(c.Len()-1, 1) // moves one element
	tailCost := conv.Elapsed() - before
	if headCost < tailCost*100 {
		t.Fatalf("head insert (%v) should dwarf tail insert (%v)", headCost, tailCost)
	}
}

// newConcretePair builds both backends with their extension methods
// visible.
func newConcretePair(t *testing.T, n int) (*Conventional, *Active, []uint32) {
	t.Helper()
	conv, rad := testMachines(t)
	c, err := NewConventional(conv, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewActive(rad, n)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]uint32, n)
	for i := range ref {
		ref[i] = uint32(i) * 3
	}
	return c, a, ref
}

func TestAccumulateBothBackends(t *testing.T) {
	c, a, ref := newConcretePair(t, 40000) // multiple pages
	var want uint64
	for _, v := range ref {
		want += uint64(v)
	}
	for name, arr := range map[string]interface {
		Accumulate() (uint64, error)
	}{"conv": c, "active": a} {
		got, err := arr.Accumulate()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s accumulate = %d, want %d", name, got, want)
		}
	}
}

func TestPartialSumBothBackends(t *testing.T) {
	c, a, ref := newConcretePair(t, 35000)
	want := make([]uint32, len(ref))
	var run uint32
	for i, v := range ref {
		run += v
		want[i] = run
	}
	if err := c.PartialSum(); err != nil {
		t.Fatal(err)
	}
	if err := a.PartialSum(); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 1, 100, 16319, 16320, 16321, 34999} {
		if got := a.Get(pos); got != want[pos] {
			t.Fatalf("active prefix[%d] = %d, want %d", pos, got, want[pos])
		}
		if got := c.Get(pos); got != want[pos] {
			t.Fatalf("conv prefix[%d] = %d, want %d", pos, got, want[pos])
		}
	}
}

func TestAdjacentDifferenceBothBackends(t *testing.T) {
	c, a, ref := newConcretePair(t, 35000)
	want := make([]uint32, len(ref))
	want[0] = ref[0]
	for i := 1; i < len(ref); i++ {
		want[i] = ref[i] - ref[i-1]
	}
	if err := c.AdjacentDifference(); err != nil {
		t.Fatal(err)
	}
	if err := a.AdjacentDifference(); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 1, 2, 16319, 16320, 16321, 34999} {
		if got := a.Get(pos); got != want[pos] {
			t.Fatalf("active diff[%d] = %d, want %d", pos, got, want[pos])
		}
		if got := c.Get(pos); got != want[pos] {
			t.Fatalf("conv diff[%d] = %d, want %d", pos, got, want[pos])
		}
	}
}

func TestExtensionsExploitParallelism(t *testing.T) {
	// Accumulate across many pages should beat the conventional scan.
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	conv := radram.NewConventional(cfg)
	rad := radram.MustNew(cfg)
	n := 16320 * 16
	c, _ := NewConventional(conv, n)
	a, _ := NewActive(rad, n)
	c.Accumulate()
	a.Accumulate()
	if rad.Elapsed() >= conv.Elapsed() {
		t.Fatalf("parallel accumulate (%v) not faster than scan (%v)",
			rad.Elapsed(), conv.Elapsed())
	}
}

// TestMemoReadOnly runs the benchmark on both machines at two sizes, then
// checks every memo entry against a fresh generation.
func TestMemoReadOnly(t *testing.T) {
	for _, pages := range []float64{0.5, 2} {
		conv, rad := testMachines(t)
		for _, m := range []*radram.Machine{conv, rad} {
			if err := (Benchmark{}).Run(m, pages); err != nil {
				t.Fatalf("%g pages: %v", pages, err)
			}
		}
	}
	entries := 0
	mixes.Range(func(n int, mx *mix) bool {
		entries++
		if !reflect.DeepEqual(mx, newMix(n)) {
			t.Errorf("%d elements: memo entry differs from a fresh generation", n)
		}
		return true
	})
	if entries < 2 {
		t.Fatalf("memo holds %d entries, want at least 2", entries)
	}
}
