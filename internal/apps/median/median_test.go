package median

import (
	"reflect"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/radram"
	"activepages/internal/workload"
)

func cfg() radram.Config {
	return radram.DefaultConfig().WithPageBytes(64 * 1024)
}

func TestKernelVerifiesBothMachines(t *testing.T) {
	for _, pages := range []float64{0.2, 1, 2} {
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

func TestTotalVerifies(t *testing.T) {
	rad := radram.MustNew(cfg())
	if err := (Total{}).Run(rad, 2); err != nil {
		t.Fatal(err)
	}
}

func TestTotalCostsMoreThanKernel(t *testing.T) {
	k := radram.MustNew(cfg())
	if err := (Benchmark{}).Run(k, 4); err != nil {
		t.Fatal(err)
	}
	tot := radram.MustNew(cfg())
	if err := (Total{}).Run(tot, 4); err != nil {
		t.Fatal(err)
	}
	if tot.Elapsed() <= k.Elapsed() {
		t.Fatalf("median-total (%v) should cost more than median-kernel (%v)",
			tot.Elapsed(), k.Elapsed())
	}
}

func TestWidthScalesWithPage(t *testing.T) {
	small := radram.MustNew(radram.DefaultConfig().WithPageBytes(32 * 1024))
	big := radram.MustNew(radram.DefaultConfig().WithPageBytes(256 * 1024))
	if width(small) >= width(big) {
		t.Fatal("image width should grow with page size")
	}
	if width(small) < 256 {
		t.Fatal("width floor violated")
	}
}

func TestBlockRowsFitPage(t *testing.T) {
	m := radram.MustNew(cfg())
	rows := blockRows(m)
	w := width(m)
	need := uint64((rows+2)*w*2 + rows*w*2)
	if need > m.PageBytes()-256 {
		t.Fatalf("block layout (%d bytes) overflows the page", need)
	}
	if rows < 1 {
		t.Fatal("no rows per page")
	}
}

func TestPageBlocksMatchGlobalFilter(t *testing.T) {
	// The page decomposition (halo rows) must agree exactly with a global
	// filter at every block boundary.
	rad := radram.MustNew(cfg())
	rows := blockRows(rad)
	img := workload.NewImage(3, width(rad), rows*3+rows/2)
	want := img.MedianReference()
	got, err := runRADram(rad, img, false)
	if err != nil {
		t.Fatal(err)
	}
	// Check the rows adjacent to every page boundary specifically.
	for _, y := range []int{rows - 1, rows, rows + 1, 2*rows - 1, 2 * rows} {
		for x := 0; x < img.W; x += 97 {
			if got.Pix[y*img.W+x] != want.Pix[y*img.W+x] {
				t.Fatalf("boundary pixel (%d,%d) = %d, want %d",
					x, y, got.Pix[y*img.W+x], want.Pix[y*img.W+x])
			}
		}
	}
}

func TestClamp(t *testing.T) {
	if clamp(-3, 10) != 0 || clamp(12, 10) != 9 || clamp(5, 10) != 5 {
		t.Fatal("clamp wrong")
	}
}

// TestMemoReadOnly runs both kernels on both machines at two sizes, then
// checks every memo entry against a fresh generation: a run that wrote into
// a shared image or reference would poison every later run of that size.
func TestMemoReadOnly(t *testing.T) {
	for _, b := range []apps.Benchmark{Benchmark{}, Total{}} {
		for _, pages := range []float64{0.5, 2} {
			for _, m := range []*radram.Machine{radram.NewConventional(cfg()), radram.MustNew(cfg())} {
				if err := b.Run(m, pages); err != nil {
					t.Fatalf("%s %g pages: %v", b.Name(), pages, err)
				}
			}
		}
	}
	entries := 0
	inputs.Range(func(k size, in input) bool {
		entries++
		if !reflect.DeepEqual(in, newInput(k)) {
			t.Errorf("%dx%d image: memo entry differs from a fresh generation", k.w, k.h)
		}
		return true
	})
	if entries < 2 {
		t.Fatalf("memo holds %d entries, want at least 2", entries)
	}
}
