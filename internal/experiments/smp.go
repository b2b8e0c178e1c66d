package experiments

import (
	"fmt"

	"activepages/internal/apps/database"
	"activepages/internal/apps/layout"
	"activepages/internal/core"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/sim"
	"activepages/internal/tabler"
	"activepages/internal/workload"
)

// SMPStudy models the multiprocessor coordination Section 2 sketches
// ("pages may coordinate with multiple processors in a Symmetric
// Multiprocessor") and Section 10 lists as future work: P processors share
// one Active-Page memory, each owning a disjoint slice of the pages of a
// database query. Activation dispatch — the serial bottleneck that causes
// saturation — is parallelized across processors, so the saturation point
// scales with P.
//
// The model gives each processor its own timeline over a shared backing
// store; kernel time is the slowest processor. Bus contention between
// processors is not modeled (each has the paper's full bus to memory),
// making this the optimistic bound hardware SMP support would approach.
func SMPStudy(r *run.Runner, cfg radram.Config, pages float64, processors []int) (*tabler.Figure, error) {
	f := tabler.NewFigure(
		fmt.Sprintf("SMP: database query time vs processors (%g pages)", pages),
		"processors", "time (ms)")
	f.X = axis(processors, func(p int) float64 { return float64(p) })
	y, err := run.Map(r, len(processors), func(i int) (float64, error) {
		t, err := runSMPDatabase(r, cfg, pages, processors[i])
		return t.Milliseconds(), err
	})
	if err != nil {
		return nil, err
	}
	f.Add("database", y)
	return f, nil
}

// runSMPDatabase splits the database pages across an n-processor cluster
// and returns the slowest processor's elapsed time.
func runSMPDatabase(r *run.Runner, cfg radram.Config, pages float64, nProc int) (sim.Time, error) {
	if nProc < 1 {
		return 0, fmt.Errorf("experiments: need at least one processor")
	}
	cl, err := run.NewCluster(cfg, nProc)
	if err != nil {
		return 0, err
	}

	// Shared data: one address book blocked into pages, as the database
	// study lays it out, grown where needed to give every processor a
	// record. The search only reads it, so the pages map the book.
	perPage := int((cfg.AP.PageBytes - layout.HeaderBytes) / workload.RecordBytes)
	nRecords := max(int(pages*float64(perPage)), nProc)
	book := workload.SharedAddressBook(1998, nRecords)
	nPages := (nRecords + perPage - 1) / perPage

	// Each processor owns a contiguous slice of pages via its own
	// Active-Page system view over the shared store.
	owned := make([][]*core.Page, nProc)
	first := make([]int, nProc)
	for pg := 0; pg < nPages; pg++ {
		w := pg * nProc / nPages
		vaddr := uint64(layout.DataBase) + uint64(pg)*cfg.AP.PageBytes
		p, err := cl.APs[w].Alloc("database", vaddr)
		if err != nil {
			return 0, err
		}
		if len(owned[w]) == 0 {
			first[w] = pg
		}
		owned[w] = append(owned[w], p)
		lo := pg * perPage
		hi := min(nRecords, lo+perPage)
		cl.Store.Map(vaddr+layout.HeaderBytes,
			book[lo*workload.RecordBytes:hi*workload.RecordBytes])
	}

	// Each processor dispatches and summarizes its slice.
	total := 0
	var slowest sim.Time
	for w := 0; w < nProc; w++ {
		if len(owned[w]) == 0 {
			continue
		}
		count, err := database.QueryPages(cl.APs[w], owned[w], perPage,
			nRecords-first[w]*perPage, workload.QueryName())
		if err != nil {
			return 0, err
		}
		total += count
		if now := cl.CPUs[w].Now(); now > slowest {
			slowest = now
		}
	}
	if want := workload.CountLastName(book, workload.QueryName()); total != want {
		return 0, fmt.Errorf("experiments: SMP count %d, want %d", total, want)
	}
	r.Collect(cl.Metrics.Snapshot().WithPrefix("smp."))
	return slowest, nil
}
