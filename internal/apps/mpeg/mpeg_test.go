package mpeg

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
	for _, pages := range []float64{0.1, 1, 3} {
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

func TestSaturate(t *testing.T) {
	if saturate(40000) != 32767 {
		t.Error("positive saturation")
	}
	if saturate(-40000) != -32768 {
		t.Error("negative saturation")
	}
	if saturate(123) != 123 {
		t.Error("identity")
	}
}

func TestConventionalMatchesReferenceDirect(t *testing.T) {
	m := radram.NewConventional(cfg())
	f := workload.NewMPEGFrame(9, 50)
	got := runConventional(m, inputOf(f))
	want := f.ApplyCorrectionReference()
	for i := range want {
		if int16(got[i]) != want[i] {
			t.Fatalf("sample %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRADramMatchesReferenceDirect(t *testing.T) {
	m := radram.MustNew(cfg())
	f := workload.NewMPEGFrame(9, 700) // > one page of blocks
	got, err := runRADram(m, inputOf(f))
	if err != nil {
		t.Fatal(err)
	}
	want := f.ApplyCorrectionReference()
	for i := range want {
		if int16(got[i]) != want[i] {
			t.Fatalf("sample %d = %d, want %d", i, got[i], want[i])
		}
	}
	if m.AP.Stats.Activations < 2 {
		t.Fatal("multi-page frame used too few activations")
	}
}

func TestWideInstructionsPerPage(t *testing.T) {
	// One page holds 10880 halfwords at 64 KB; at 4096 halfwords per wide
	// instruction that is 3 activations for a full page.
	m := radram.MustNew(cfg())
	f := workload.NewMPEGFrame(9, hwPerPage(m)/64) // exactly one page
	if _, err := runRADram(m, inputOf(f)); err != nil {
		t.Fatal(err)
	}
	if got := m.AP.Stats.Activations; got != 3 {
		t.Fatalf("activations = %d, want 3 wide instructions", got)
	}
}

func TestRADramBeatsConventionalPerHalfword(t *testing.T) {
	conv := radram.NewConventional(cfg())
	if err := (Benchmark{}).Run(conv, 4); err != nil {
		t.Fatal(err)
	}
	rad := radram.MustNew(cfg())
	if err := (Benchmark{}).Run(rad, 4); err != nil {
		t.Fatal(err)
	}
	if rad.Elapsed() >= conv.Elapsed() {
		t.Fatalf("RADram MMX (%v) not faster than SimpleScalar MMX (%v)",
			rad.Elapsed(), conv.Elapsed())
	}
}

// TestMemoReadOnly runs the benchmark on both machines at two sizes, then
// checks every memo entry against a fresh generation: a run that wrote into
// a shared frame or answer would poison every later run of that size. The
// stores map the frame's halfwords, so a write that reached a mapped store
// frame instead of its copy fails here too.
func TestMemoReadOnly(t *testing.T) {
	for _, pages := range []float64{0.5, 2} {
		for _, m := range []*radram.Machine{radram.NewConventional(cfg()), radram.MustNew(cfg())} {
			if err := (Benchmark{}).Run(m, pages); err != nil {
				t.Fatalf("%g pages: %v", pages, err)
			}
		}
	}
	entries := 0
	frames.Range(func(blocks int, in frameInput) bool {
		entries++
		if !reflect.DeepEqual(in, newFrameInput(blocks)) {
			t.Errorf("%d blocks: memo entry differs from a fresh generation", blocks)
		}
		return true
	})
	if entries < 2 {
		t.Fatalf("memo holds %d entries, want at least 2", entries)
	}
}
