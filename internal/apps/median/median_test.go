package median

import (
	"math/rand"
	"reflect"
	"slices"
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

// sortedMedian is the median of nine values by sorting: the oracle for the
// page function, independent of both the column formula and the reference
// network.
func sortedMedian(win [9]uint16) uint16 {
	s := win[:]
	slices.Sort(s)
	return s[4]
}

// window returns the 3x3 window centred on column x of rows r0..r2, with
// columns clamped at the edges.
func window(r0, r1, r2 []uint16, x int) [9]uint16 {
	var win [9]uint16
	k := 0
	for _, r := range [3][]uint16{r0, r1, r2} {
		for dx := -1; dx <= 1; dx++ {
			win[k] = r[clamp(x+dx, len(r))]
			k++
		}
	}
	return win
}

// TestFilterRowMatchesSortedWindow checks the page function's row filter
// against a sort of every clamped window, on random rows of many widths —
// so both edge columns and single-pixel rows are covered — over the full
// pixel range and over a small alphabet that forces ties.
func TestFilterRowMatchesSortedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		w := 1 + rng.Intn(40)
		if trial%50 == 0 {
			w = 256
		}
		limit := 1 << 16
		if trial%2 == 1 {
			limit = 3
		}
		rows := make([][]uint16, 3)
		for i := range rows {
			rows[i] = make([]uint16, w)
			for x := range rows[i] {
				rows[i][x] = uint16(rng.Intn(limit))
			}
		}
		o := make([]uint16, w)
		filterRow(o, rows[0], rows[1], rows[2])
		for x := range o {
			if want := sortedMedian(window(rows[0], rows[1], rows[2], x)); o[x] != want {
				t.Fatalf("width %d, column %d: median %d, want %d", w, x, o[x], want)
			}
		}
	}
}

// TestColumnFormulaAllSmallWindows puts every window over a 4-value
// alphabet — all 4^9 of them, ties included — through the sorted-column
// formula (the middle output of a 3-pixel row) and compares it with a sort.
func TestColumnFormulaAllSmallWindows(t *testing.T) {
	alphabet := [4]uint16{0, 1, 2, 65535}
	var r0, r1, r2, o [3]uint16
	for n := 0; n < 1<<18; n++ {
		var win [9]uint16
		for i := range win {
			win[i] = alphabet[n>>(2*i)&3]
		}
		r0, r1, r2 = [3]uint16(win[0:3]), [3]uint16(win[3:6]), [3]uint16(win[6:9])
		filterRow(o[:], r0[:], r1[:], r2[:])
		if want := sortedMedian(win); o[1] != want {
			t.Fatalf("window %v: median %d, want %d", win, o[1], want)
		}
	}
}

// TestPageFunctionMatchesSortedFilter runs the RADram kernel on a random
// image whose last page holds a one-row block, and checks every output
// pixel against a sort of its clamped window in the global image.
func TestPageFunctionMatchesSortedFilter(t *testing.T) {
	rad := radram.MustNew(cfg())
	rows := blockRows(rad)
	w := width(rad)
	rng := rand.New(rand.NewSource(4))
	img := &workload.Image{W: w, H: 2*rows + 1, Pix: make([]uint16, w*(2*rows+1))}
	for i := range img.Pix {
		img.Pix[i] = uint16(rng.Intn(1 << 16))
	}
	got, err := runRADram(rad, img, false)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < img.H; y++ {
		row := func(dy int) []uint16 {
			r := clamp(y+dy, img.H)
			return img.Pix[r*w : (r+1)*w]
		}
		for x := 0; x < w; x++ {
			if want := sortedMedian(window(row(-1), row(0), row(1), x)); got.Pix[y*w+x] != want {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got.Pix[y*w+x], want)
			}
		}
	}
}
