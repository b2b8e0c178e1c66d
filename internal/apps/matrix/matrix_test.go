package matrix

import (
	"math"
	"reflect"
	"testing"

	"activepages/internal/radram"
	"activepages/internal/workload"
)

func cfg() radram.Config {
	return radram.DefaultConfig().WithPageBytes(64 * 1024)
}

func TestBothVariantsVerify(t *testing.T) {
	for _, v := range []Variant{Boeing, Simplex} {
		b := Benchmark{Variant: v}
		for _, pages := range []float64{0.2, 1, 4} {
			conv := radram.NewConventional(cfg())
			if err := b.Run(conv, pages); err != nil {
				t.Fatalf("%s conventional %g pages: %v", b.Name(), pages, err)
			}
			rad := radram.MustNew(cfg())
			if err := b.Run(rad, pages); err != nil {
				t.Fatalf("%s radram %g pages: %v", b.Name(), pages, err)
			}
		}
	}
}

func TestNames(t *testing.T) {
	if (Benchmark{Variant: Boeing}).Name() != "matrix-boeing" {
		t.Error("boeing name wrong")
	}
	if (Benchmark{Variant: Simplex}).Name() != "matrix-simplex" {
		t.Error("simplex name wrong")
	}
}

func TestConventionalMatchesReferenceDirect(t *testing.T) {
	m := radram.NewConventional(cfg())
	mat := workload.BoeingStyle(3, 100, 8)
	got := runConventional(m, newInput(mat))
	for i := 0; i < 99; i++ {
		want := workload.SparseDotReference(
			mat.Col[mat.RowPtr[i]:mat.RowPtr[i+1]], mat.Val[mat.RowPtr[i]:mat.RowPtr[i+1]],
			mat.Col[mat.RowPtr[i+1]:mat.RowPtr[i+2]], mat.Val[mat.RowPtr[i+1]:mat.RowPtr[i+2]])
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("pair %d: %g != %g", i, got[i], want)
		}
	}
	if m.CPU.Stats.FPOps == 0 {
		t.Fatal("no floating-point work charged")
	}
}

func TestGatherPacksOnlyMatches(t *testing.T) {
	m := radram.MustNew(cfg())
	mat := workload.SimplexStyle(3, 200, 4096, 12)
	if _, err := runRADram(m, newInput(mat)); err != nil {
		t.Fatal(err)
	}
	// Processor-side FP ops = 2 per match; match count is bounded by the
	// smaller row of each pair.
	var bound uint64
	for i := 0; i < 199; i++ {
		bound += 2 * uint64(min(mat.RowNNZ(i), mat.RowNNZ(i+1)))
	}
	if got := m.CPU.Stats.FPOps; got > bound {
		t.Fatalf("FP ops %d exceed the matching bound %d", got, bound)
	}
}

func TestBoeingDenserThanSimplex(t *testing.T) {
	// Banded FEM rows overlap far more than Simplex rows; the FP work per
	// pair should reflect it.
	boe := radram.MustNew(cfg())
	if err := (Benchmark{Variant: Boeing}).Run(boe, 2); err != nil {
		t.Fatal(err)
	}
	sim := radram.MustNew(cfg())
	if err := (Benchmark{Variant: Simplex}).Run(sim, 2); err != nil {
		t.Fatal(err)
	}
	boeDots := boe.CPU.Stats.FPOps
	simDots := sim.CPU.Stats.FPOps
	if boeDots < simDots*4 {
		t.Fatalf("boeing FP work (%d) should dwarf simplex (%d)", boeDots, simDots)
	}
}

func TestPairBytes(t *testing.T) {
	// Sanity on the layout planner's size model.
	if pairBytes(10, 10, 10) != 10*24+160+16 {
		t.Fatalf("pairBytes = %d", pairBytes(10, 10, 10))
	}
}

// TestMemoReadOnly runs both variants on both machines at two sizes, then
// checks every memo entry against a fresh generation: a run that wrote into
// a shared matrix, answer or word slice would poison every later run of
// that size. The conventional store maps the word slices, so a write that
// reached a mapped frame instead of its copy fails here too.
func TestMemoReadOnly(t *testing.T) {
	for _, v := range []Variant{Boeing, Simplex} {
		for _, pages := range []float64{0.5, 2} {
			for _, m := range []*radram.Machine{radram.NewConventional(cfg()), radram.MustNew(cfg())} {
				if err := (Benchmark{Variant: v}).Run(m, pages); err != nil {
					t.Fatalf("variant %d, %g pages: %v", v, pages, err)
				}
			}
		}
	}
	entries := 0
	inputs.Range(func(k inputKey, in *input) bool {
		entries++
		if !reflect.DeepEqual(in, newInput(k.matrix())) {
			t.Errorf("variant %d, %d rows: memo entry differs from a fresh generation", k.variant, k.rows)
		}
		return true
	})
	if entries < 4 {
		t.Fatalf("memo holds %d entries, want at least 4", entries)
	}
}
