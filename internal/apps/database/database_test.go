package database

import (
	"bytes"
	"runtime"
	"testing"

	"activepages/internal/apps/layout"
	"activepages/internal/radram"
	"activepages/internal/workload"
)

func cfg() radram.Config {
	return radram.DefaultConfig().WithPageBytes(64 * 1024)
}

func TestBothImplementationsAgreeWithReference(t *testing.T) {
	for _, pages := range []float64{0.1, 1, 2.5} {
		conv := radram.NewConventional(cfg())
		if err := (Benchmark{}).Run(conv, pages); err != nil {
			t.Fatalf("conventional at %g pages: %v", pages, err)
		}
		rad := radram.MustNew(cfg())
		if err := (Benchmark{}).Run(rad, pages); err != nil {
			t.Fatalf("radram at %g pages: %v", pages, err)
		}
	}
}

func TestRecordsForSizing(t *testing.T) {
	m := radram.MustNew(cfg())
	perPage := int(layout.UsableBytes(m) / workload.RecordBytes)
	if got := recordsFor(m, 2); got != 2*perPage {
		t.Fatalf("recordsFor(2 pages) = %d, want %d", got, 2*perPage)
	}
	if recordsFor(m, 0.0001) < 1 {
		t.Fatal("tiny problem must have at least one record")
	}
}

func TestConventionalCountDirect(t *testing.T) {
	m := radram.NewConventional(cfg())
	book := workload.AddressBook(5, 500)
	want := workload.CountLastName(book, workload.QueryName())
	got := runConventional(m, book, 500, workload.QueryName())
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if m.CPU.Stats.Loads == 0 {
		t.Fatal("conventional scan issued no loads")
	}
}

func TestRADramCountDirect(t *testing.T) {
	m := radram.MustNew(cfg())
	book := workload.AddressBook(5, 2000)
	want := workload.CountLastName(book, workload.QueryName())
	got, err := runRADram(m, book, 2000, workload.QueryName())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// 2000 records at 509/page (64 KB pages) -> 4 pages, all activated.
	if m.AP.Stats.Activations != 4 {
		t.Fatalf("activations = %d, want 4", m.AP.Stats.Activations)
	}
}

func TestNoMatchesQuery(t *testing.T) {
	m := radram.MustNew(cfg())
	book := workload.AddressBook(5, 300)
	got, err := runRADram(m, book, 300, "zzz-not-a-name")
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("count = %d for absent name", got)
	}
}

func TestSearchIsEarlyExit(t *testing.T) {
	// The circuit charges fewer cycles when first words mismatch: a page
	// of non-matching records must finish faster than one full compare per
	// record would.
	m := radram.MustNew(cfg())
	book := workload.AddressBook(5, 509) // one page
	if _, err := runRADram(m, book, 509, "zzzz"); err != nil {
		t.Fatal(err)
	}
	g, _ := m.AP.Group("database")
	busy := g.Pages()[0].BusyTime
	// Full compare would be >= 8 cycles/record = 509*8*10ns ~ 40us; early
	// exit on the first word keeps it near 3 cycles/record ~ 15us.
	if busy.Microseconds() > 25 {
		t.Fatalf("page busy %v suggests no early exit", busy)
	}
}

// TestMemoReadOnly runs the benchmark on both machines at two sizes, then
// checks every memo entry and the shared book against a fresh generation:
// a run that wrote into a shared book or answer would poison every later
// run of that size. The stores map the book, so a write that reached a
// mapped frame instead of its copy fails here too.
func TestMemoReadOnly(t *testing.T) {
	for _, pages := range []float64{0.5, 2} {
		for _, m := range []*radram.Machine{radram.NewConventional(cfg()), radram.MustNew(cfg())} {
			if err := (Benchmark{}).Run(m, pages); err != nil {
				t.Fatalf("%g pages: %v", pages, err)
			}
		}
	}
	entries := 0
	wants.Range(func(n int, want int) bool {
		entries++
		book := workload.AddressBook(seed, n)
		if !bytes.Equal(workload.SharedAddressBook(seed, n), book) {
			t.Errorf("%d records: shared book differs from a fresh generation", n)
		}
		if fresh := workload.CountLastName(book, workload.QueryName()); want != fresh {
			t.Errorf("%d records: memoized count %d, fresh count %d", n, want, fresh)
		}
		return true
	})
	if entries < 2 {
		t.Fatalf("memo holds %d entries, want at least 2", entries)
	}
}

// TestRunsMapTheBook checks that a run shares the memoized book's frames
// instead of copying them into its store: a conventional run, and a RADram
// run whose 64 KiB pages each hold three whole frames of records, must
// each allocate less than half the book's bytes. Copying the book costs at
// least all of them.
func TestRunsMapTheBook(t *testing.T) {
	const pages = 64
	machines := map[string]func() *radram.Machine{
		"conventional": func() *radram.Machine { return radram.NewConventional(cfg()) },
		"radram":       func() *radram.Machine { return radram.MustNew(cfg()) },
	}
	for kind, mk := range machines {
		// A first run generates the book and warms the memo.
		if err := (Benchmark{}).Run(mk(), pages); err != nil {
			t.Fatal(err)
		}
		m := mk()
		book := len(workload.SharedAddressBook(seed, recordsFor(m, pages)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := (Benchmark{}).Run(m, pages); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(book)/2 {
			t.Errorf("%s run allocated %d bytes for a %d-byte book: it copied the book",
				kind, got, book)
		}
	}
}
