// Package database implements the unindexed address-database query study
// (Section 5.1): count the records whose last-name field exactly matches a
// query string.
//
// Conventional partition: the processor scans every record, comparing the
// field word by word with early exit — an O(records) walk whose cost is
// dominated by cache misses on the 128-byte record stride.
//
// Active-Page partition: records are blocked across pages; every page is
// programmed with the search circuit and scans its records in parallel.
// The processor initiates the query and sums the per-page match counts
// (Table 2: "Initiates queries / Summarizes results").
package database

import (
	"encoding/binary"
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/apps/layout"
	"activepages/internal/backend"
	"activepages/internal/circuits"
	"activepages/internal/core"
	"activepages/internal/logic"
	"activepages/internal/memsys"
	"activepages/internal/radram"
	"activepages/internal/simdram"
	"activepages/internal/workload"
)

const (
	seed = 1998
	// countOffset is where the search circuit deposits its match count in
	// the page header.
	countOffset = 16
	// Per-record circuit timing: the FSM spends walkCycles stepping to the
	// next record and compares the queried field four bytes per cycle with
	// early exit on mismatch.
	walkCycles = 2
)

// Benchmark is the database query kernel.
type Benchmark struct{}

// Name implements apps.Benchmark.
func (Benchmark) Name() string { return "database" }

// Partitioning implements apps.Benchmark.
func (Benchmark) Partitioning() apps.Partitioning { return apps.MemoryCentric }

// Description implements apps.Benchmark.
func (Benchmark) Description() string {
	return "processor initiates queries and summarizes results; pages search unindexed data"
}

// PortedBackends implements apps.Ported: the search circuit has a
// bit-serial port (field compare = six word XNORs ANDed together, match
// count = tree reduction), so the kernel also runs on SIMDRAM.
func (Benchmark) PortedBackends() []string { return []string{"simdram"} }

// recordsFor sizes the record count to occupy the requested pages.
func recordsFor(m *radram.Machine, pages float64) int {
	perPage := layout.UsableBytes(m) / workload.RecordBytes
	n := int(pages * float64(perPage))
	if n < 1 {
		n = 1
	}
	return n
}

// Run implements apps.Benchmark.
func (Benchmark) Run(m *radram.Machine, pages float64) error {
	n := recordsFor(m, pages)
	book := workload.SharedAddressBook(seed, n)
	query := workload.QueryName()
	want := wants.Get(n, func() int { return workload.CountLastName(book, query) })

	var got int
	if m.AP == nil {
		got = runConventional(m, book, n, query)
	} else {
		g, err := runRADram(m, book, n, query)
		if err != nil {
			return err
		}
		got = g
	}
	if got != want {
		return fmt.Errorf("database: counted %d matches, want %d", got, want)
	}
	return nil
}

// wants memoizes the reference count per record count. The book itself is
// a prefix of the seed's one book (workload.SharedAddressBook); both are
// shared and read-only (see workload.Memo).
var wants workload.Memo[int, int]

// runConventional scans the records on the processor. Almost every record
// fails the very first word compare (the early exit of a hand-coded
// memcmp), so its charge is exactly one 4-byte load plus five instructions;
// maximal runs of such records form a fixed 128-byte-stride stream the
// folding layer can fast-forward. Records whose first word matches the
// query — known host-side, since the store holds the unmodified book image —
// take the original word-by-word loop.
func runConventional(m *radram.Machine, book []byte, n int, query string) int {
	base := uint64(layout.DataBase)
	// Load the database image (setup, not timed). The scan only reads it,
	// so the store shares the book's frames and copies none.
	m.Store.Map(base, book)

	qw := layout.PackQueryWords(query, workload.LastNameBytes)
	cpu := m.CPU
	count := 0
	accs := [1]memsys.StreamAcc{{Off: workload.FieldLastName, Size: 4, Count: 1, Kind: memsys.Read}}
	for r := 0; r < n; {
		run := 0
		for r+run < n &&
			binary.LittleEndian.Uint32(book[(r+run)*workload.RecordBytes+workload.FieldLastName:]) != qw[0] {
			run++
		}
		if run > 0 {
			// Compute(3) loop overhead + one load + Compute(2) compare/branch.
			cpu.Stream(base+uint64(r)*workload.RecordBytes, workload.RecordBytes,
				uint64(run), accs[:], 3+2)
			r += run
			continue
		}
		rec := base + uint64(r)*workload.RecordBytes
		cpu.Compute(3) // loop: record pointer bump, bound check, branch
		match := true
		for w := 0; w < len(qw); w++ {
			v := cpu.LoadU32(rec + uint64(workload.FieldLastName) + uint64(w)*4)
			cpu.Compute(2) // compare + branch
			if v != qw[w] {
				match = false
				break // early exit, like a hand-coded memcmp
			}
		}
		if match {
			count++
			cpu.Compute(1)
		}
		r++
	}
	return count
}

// searchFn is the Active-Page search circuit. The record buffer persists
// across activations (functions are bound per machine, single-threaded);
// context reads are functional, so bulk-reading the record block up front
// is identical to reading word by word — the charge is the cycle count
// computed below, which keeps the per-word early-exit accounting.
type searchFn struct{ buf []byte }

func (*searchFn) Name() string          { return "db-search" }
func (*searchFn) Design() *logic.Design { return circuits.Database() }

// BitSerial implements core.BitSerialFunction: records sit one per lane;
// the queried field is compared 32 bits at a time.
func (*searchFn) BitSerial() backend.BitSerial {
	return backend.BitSerial{Width: 32, TempRows: simdram.TempRowsFor(32)}
}

func (f *searchFn) Run(ctx *core.PageContext) (core.Result, error) {
	nRecords := ctx.Args[0]
	qw := []uint32{uint32(ctx.Args[1]), uint32(ctx.Args[1] >> 32),
		uint32(ctx.Args[2]), uint32(ctx.Args[2] >> 32),
		uint32(ctx.Args[3]), uint32(ctx.Args[3] >> 32)}
	total := nRecords * workload.RecordBytes
	if uint64(len(f.buf)) < total {
		f.buf = make([]byte, total)
	}
	buf := f.buf[:total]
	ctx.Read(layout.HeaderBytes, buf)
	var count uint32
	var cycles uint64
	for r := uint64(0); r < nRecords; r++ {
		rec := buf[r*workload.RecordBytes+workload.FieldLastName:]
		cycles += walkCycles
		match := true
		for w := range qw {
			cycles++ // one 4-byte compare per cycle
			if binary.LittleEndian.Uint32(rec[w*4:]) != qw[w] {
				match = false
				break
			}
		}
		if match {
			count++
		}
	}
	ctx.WriteU32(countOffset, count)
	// Bit-serial: every record lane compares all six query words (no
	// early exit across lanes) and ANDs the per-word results, then the
	// match bits are tree-summed.
	return ctx.FinishOps(cycles, backend.Ops{
		Width: 32, Elems: nRecords, Cmps: 6, Bools: 5, Reduces: 1,
	})
}

// runRADram distributes the records over Active Pages and runs the search
// circuit on all of them.
func runRADram(m *radram.Machine, book []byte, n int, query string) (int, error) {
	perPage := int(layout.UsableBytes(m) / workload.RecordBytes)
	nPages := (n + perPage - 1) / perPage

	pagesList, err := m.AP.AllocRange("database", layout.DataBase, uint64(nPages))
	if err != nil {
		return 0, err
	}
	// Block the records into pages (setup, not timed). The circuit only
	// reads them, so each page shares the book's frames.
	for p := 0; p < nPages; p++ {
		first := p * perPage
		last := min(n, first+perPage)
		m.Store.Map(pagesList[p].Base+layout.HeaderBytes,
			book[first*workload.RecordBytes:last*workload.RecordBytes])
	}
	return QueryPages(m.AP, pagesList, perPage, n, query)
}

// QueryPages binds the search circuit to the pages' group and runs the
// query over an explicit page list, returning the summed match count. It
// is the dispatch/summarize half of the study, run by runRADram and
// exported so multiprocessor harnesses can drive disjoint page slices from
// separate processors (Section 2's SMP coordination).
func QueryPages(sys *core.System, pagesList []*core.Page, perPage, totalRecords int, query string) (int, error) {
	if len(pagesList) == 0 {
		return 0, nil
	}
	if err := sys.Bind(pagesList[0].Group(), &searchFn{}); err != nil {
		return 0, err
	}
	qw := layout.PackQueryWords(query, workload.LastNameBytes)
	args := []uint64{0,
		uint64(qw[0]) | uint64(qw[1])<<32,
		uint64(qw[2]) | uint64(qw[3])<<32,
		uint64(qw[4]) | uint64(qw[5])<<32,
	}
	cpu := sys.CPU()
	for p, page := range pagesList {
		first := p * perPage
		last := min(totalRecords, first+perPage)
		if last <= first {
			break
		}
		args[0] = uint64(last - first)
		if err := sys.Activate(page, "db-search", args...); err != nil {
			return 0, err
		}
	}
	count := 0
	for _, page := range pagesList {
		sys.Wait(page)
		count += int(cpu.UncachedLoadU32(page.Base + countOffset))
		cpu.Compute(2)
	}
	return count, nil
}
