package lcs

import (
	"reflect"
	"testing"

	"activepages/internal/radram"
	"activepages/internal/workload"
)

func cfg() radram.Config {
	return radram.DefaultConfig().WithPageBytes(64 * 1024)
}

func TestVerifiesBothMachines(t *testing.T) {
	for _, pages := range []float64{0.2, 1, 3} {
		conv := radram.NewConventional(cfg())
		if err := (Benchmark{}).Run(conv, pages); err != nil {
			t.Fatalf("conventional %g pages: %v", pages, err)
		}
		rad := radram.MustNew(cfg())
		if err := (Benchmark{}).Run(rad, pages); err != nil {
			t.Fatalf("radram %g pages: %v", pages, err)
		}
	}
}

func TestCellRecurrence(t *testing.T) {
	if cell(true, 5, 9, 9) != 6 {
		t.Error("match must take nw+1")
	}
	if cell(false, 5, 7, 3) != 7 {
		t.Error("north max wrong")
	}
	if cell(false, 5, 3, 7) != 7 {
		t.Error("west max wrong")
	}
}

func TestConventionalMatchesReferenceDirect(t *testing.T) {
	m := radram.NewConventional(cfg())
	a := workload.DNA(1, 300)
	b := workload.DNA(2, M)
	got := runConventional(m, a, b)
	if want := workload.LCSReference(a, b); got != want {
		t.Fatalf("conventional LCS = %d, want %d", got, want)
	}
}

func TestWavefrontMatchesReferenceDirect(t *testing.T) {
	m := radram.MustNew(cfg())
	rows := rowsPerPage(m)
	a := workload.DNA(1, rows*2+rows/3) // three strips, last partial
	b := workload.DNA(2, M)
	got, err := runRADram(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.LCSReference(a, b); got != want {
		t.Fatalf("wavefront LCS = %d, want %d", got, want)
	}
	if m.AP.Stats.InterPageTransfers == 0 {
		t.Fatal("multi-strip fill without inter-page transfers")
	}
}

func TestSingleStripNoInterPage(t *testing.T) {
	m := radram.MustNew(cfg())
	a := workload.DNA(1, 10)
	b := workload.DNA(2, M)
	if _, err := runRADram(m, a, b); err != nil {
		t.Fatal(err)
	}
	if m.AP.Stats.InterPageTransfers != 0 {
		t.Fatal("single strip should not communicate")
	}
}

func TestWavefrontPipelines(t *testing.T) {
	// K strips must complete in far less than K * (per-strip time): the
	// wavefront overlaps them.
	one := radram.MustNew(cfg())
	rows := rowsPerPage(one)
	bSeq := workload.DNA(2, M)
	if _, err := runRADram(one, workload.DNA(1, rows), bSeq); err != nil {
		t.Fatal(err)
	}
	oneTime := one.Elapsed()

	eight := radram.MustNew(cfg())
	if _, err := runRADram(eight, workload.DNA(1, rows*8), bSeq); err != nil {
		t.Fatal(err)
	}
	if eight.Elapsed() > oneTime*5 {
		t.Fatalf("8 strips (%v) not pipelined against 1 strip (%v)",
			eight.Elapsed(), oneTime)
	}
}

func TestIdenticalSequences(t *testing.T) {
	m := radram.MustNew(cfg())
	a := workload.DNA(9, M)
	got, err := runRADram(m, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != M {
		t.Fatalf("LCS of identical sequences = %d, want %d", got, M)
	}
}

// TestMemoReadOnly runs the benchmark on both machines at two sizes, then
// checks every memo entry against a fresh generation: a run that wrote into
// a shared sequence would poison every later run of that size.
func TestMemoReadOnly(t *testing.T) {
	for _, pages := range []float64{0.5, 2} {
		for _, m := range []*radram.Machine{radram.NewConventional(cfg()), radram.MustNew(cfg())} {
			if err := (Benchmark{}).Run(m, pages); err != nil {
				t.Fatalf("%g pages: %v", pages, err)
			}
		}
	}
	entries := 0
	inputs.Range(func(n int, in input) bool {
		entries++
		if !reflect.DeepEqual(in, newInput(n)) {
			t.Errorf("%d rows: memo entry differs from a fresh generation", n)
		}
		return true
	})
	if entries < 2 {
		t.Fatalf("memo holds %d entries, want at least 2", entries)
	}
}
