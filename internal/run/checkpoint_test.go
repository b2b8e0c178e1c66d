package run_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/apps/layout"
	"activepages/internal/apps/median"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// machineJSON captures every observable a machine registers — processor
// ledger, full memory hierarchy including fold diagnostics, Active-Page
// system — as deterministic JSON for snapshot-exact comparison.
func machineJSON(t *testing.T, m *radram.Machine) []byte {
	t.Helper()
	r := obs.New()
	m.Observe(r)
	j, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return j
}

// dataSpan covers the pages the round trip's benchmarks lay out from
// layout.DataBase (at most 3 pages of 64 KiB); the suffix writes there.
const dataSpan = 4 * 64 * 1024

// storeData reads the machine's data region.
func storeData(m *radram.Machine) []byte {
	b := make([]byte, dataSpan)
	m.Store.Read(layout.DataBase, b)
	return b
}

// suffix simulates a seeded run of timed loads, stores and a stream,
// followed by functional stores into the benchmark's pages, whose frames a
// checkpoint of the machine shares.
func suffix(m *radram.Machine, seed int64) {
	srng := rand.New(rand.NewSource(seed))
	for i := 0; i < 512; i++ {
		addr := uint64(srng.Intn(1 << 22))
		size := uint64(srng.Intn(64) + 1)
		if srng.Intn(3) == 0 {
			m.CPU.TouchStore(addr, size)
		} else {
			m.CPU.TouchLoad(addr, size)
		}
	}
	m.CPU.Stream(uint64(1)<<21, 8, 4096,
		[]memsys.StreamAcc{{Size: 8, Count: 1, Kind: memsys.Read}}, 3)
	for i := 0; i < 64; i++ {
		addr := layout.DataBase + uint64(srng.Intn(dataSpan-256))
		if srng.Intn(2) == 0 {
			m.CPU.StoreU32(addr&^3, srng.Uint32())
		} else {
			p := make([]byte, srng.Intn(256)+1)
			srng.Read(p)
			m.CPU.WriteBlock(addr, p)
		}
	}
}

// TestCheckpointRoundTrip is the checkpoint property test: after any run,
// a checkpoint restored into a fresh machine of the same configuration
// must reproduce the source's observable state and store contents exactly;
// an identical suffix simulated on both must keep them identical (nothing
// hidden was lost); and mutating either machine afterwards — timing state
// and store data — must not disturb the checkpoint, although the source,
// the branch and the checkpoint share frames and cache arrays until
// written.
func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	benches := []apps.Benchmark{array.Benchmark{}, median.Benchmark{}}
	for round := 0; round < 6; round++ {
		b := benches[rng.Intn(len(benches))]
		pages := []float64{0.5, 1, 2, 3}[rng.Intn(4)]
		cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
		build := func() *radram.Machine { return radram.MustNew(cfg) }
		if rng.Intn(2) == 0 {
			build = func() *radram.Machine { return radram.NewConventional(cfg) }
		}

		m := build()
		if err := b.Run(m, pages); err != nil {
			t.Fatalf("round %d: prefix run: %v", round, err)
		}
		ck := m.Checkpoint()
		atCkpt := machineJSON(t, m)
		atCkptData := storeData(m)

		m2 := build()
		if err := m2.Restore(ck); err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		if !bytes.Equal(machineJSON(t, m2), atCkpt) {
			t.Fatalf("round %d: restored state differs from source at checkpoint", round)
		}
		if !bytes.Equal(storeData(m2), atCkptData) {
			t.Fatalf("round %d: restored store differs from source at checkpoint", round)
		}

		// Identical suffix on source and branch: any state the checkpoint
		// missed (cache lines, LRU stamps, DRAM open rows, ledger) makes
		// the timing or statistics diverge here.
		suffix(m, int64(round))
		suffix(m2, int64(round))
		afterSuffix := machineJSON(t, m)
		if !bytes.Equal(machineJSON(t, m2), afterSuffix) {
			t.Fatalf("round %d: source and branch diverge after identical suffix", round)
		}
		afterData := storeData(m)
		if bytes.Equal(afterData, atCkptData) {
			t.Fatalf("round %d: the suffix wrote no store data", round)
		}
		if !bytes.Equal(storeData(m2), afterData) {
			t.Fatalf("round %d: source and branch stores diverge after identical suffix", round)
		}

		// Isolation: both machines have moved past the checkpoint; a third
		// restore must still see the original state, byte for byte.
		m3 := build()
		if err := m3.Restore(ck); err != nil {
			t.Fatalf("round %d: second restore: %v", round, err)
		}
		if !bytes.Equal(machineJSON(t, m3), atCkpt) {
			t.Fatalf("round %d: checkpoint mutated by later simulation", round)
		}
		if !bytes.Equal(storeData(m3), atCkptData) {
			t.Fatalf("round %d: checkpoint store mutated by later writes", round)
		}
	}
}

// TestCheckpointConcurrentBranches runs the source machine and four
// branches of one checkpoint at once, each simulating the same suffix, the
// way parallel sweep workers share a cached checkpoint. All five must end
// in the same state and data, and the checkpoint must still restore to
// the state it was taken in. Run it under -race.
func TestCheckpointConcurrentBranches(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	src := radram.MustNew(cfg)
	if err := (array.Benchmark{}).Run(src, 2); err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	ck := src.Checkpoint()
	atCkpt, atCkptData := machineJSON(t, src), storeData(src)

	branches := make([]*radram.Machine, 4)
	errs := make([]error, len(branches))
	var wg sync.WaitGroup
	for i := range branches {
		branches[i] = radram.MustNew(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = branches[i].Restore(ck); errs[i] == nil {
				suffix(branches[i], 7)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		suffix(src, 7)
	}()
	wg.Wait()

	want, wantData := machineJSON(t, src), storeData(src)
	for i, m := range branches {
		if errs[i] != nil {
			t.Fatalf("branch %d: restore: %v", i, errs[i])
		}
		if !bytes.Equal(machineJSON(t, m), want) || !bytes.Equal(storeData(m), wantData) {
			t.Fatalf("branch %d diverges from the source after the same suffix", i)
		}
	}
	m := radram.MustNew(cfg)
	if err := m.Restore(ck); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(machineJSON(t, m), atCkpt) || !bytes.Equal(storeData(m), atCkptData) {
		t.Fatal("concurrent branches changed the checkpoint")
	}
}

// TestCheckpointShapeMismatch pins the guard: a conventional checkpoint
// must refuse to restore into an Active-Page machine and vice versa.
func TestCheckpointShapeMismatch(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	conv, rad := radram.NewConventional(cfg), radram.MustNew(cfg)
	if err := rad.Restore(conv.Checkpoint()); err == nil {
		t.Fatal("conventional checkpoint restored into Active-Page machine")
	}
	if err := conv.Restore(rad.Checkpoint()); err == nil {
		t.Fatal("Active-Page checkpoint restored into conventional machine")
	}
}

// diagTotal sums the per-machine checkpoint diagnostics with one suffix
// across both machine prefixes of a measured point's snapshot.
func diagTotal(s obs.Snapshot, suffix string) int64 {
	var n int64
	for k, v := range s {
		if len(k) >= len(suffix) && k[len(k)-len(suffix):] == suffix {
			n += v
		}
	}
	return n
}

// TestCheckpointVsColdEquivalence runs the same measured point through a
// checkpoint-caching runner and a cold runner: measurements and
// non-diagnostic snapshots must be identical, the second cached
// measurement must branch from the checkpoint (hit diagnostics), and the
// branched result must still match the cold one.
func TestCheckpointVsColdEquivalence(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	b := array.Benchmark{}
	// measure runs the point through r with a fresh collector and returns
	// the measurement and its snapshot.
	measure := func(r *run.Runner) (apps.Measurement, obs.Snapshot, error) {
		r.Metrics = run.NewCollector()
		m, err := apps.Measure(r, b, cfg, 2)
		return m, r.Metrics.Snapshot(), err
	}

	cold := &run.Runner{Jobs: 1}
	mc, sc, err := measure(cold)
	if err != nil {
		t.Fatalf("cold measure: %v", err)
	}

	cached := &run.Runner{Jobs: 1, Checkpoints: run.NewCheckpointCache(0)}
	m1, s1, err := measure(cached)
	if err != nil {
		t.Fatalf("cached measure: %v", err)
	}
	if m1 != mc {
		t.Fatalf("cached measurement differs from cold: %+v != %+v", m1, mc)
	}
	j1, _ := s1.WithoutDiag().JSON()
	jc, _ := sc.WithoutDiag().JSON()
	if !bytes.Equal(j1, jc) {
		t.Fatal("cached snapshot differs from cold (excluding diagnostics)")
	}
	if hits := diagTotal(s1, "diag.checkpoint_cold"); hits != 2 {
		t.Fatalf("first cached point: %d cold runs recorded, want 2", hits)
	}

	m2, s2, err := measure(cached)
	if err != nil {
		t.Fatalf("second cached measure: %v", err)
	}
	if m2 != mc {
		t.Fatalf("branched measurement differs from cold: %+v != %+v", m2, mc)
	}
	j2, _ := s2.WithoutDiag().JSON()
	if !bytes.Equal(j2, jc) {
		t.Fatal("branched snapshot differs from cold (excluding diagnostics)")
	}
	if hits := diagTotal(s2, "diag.checkpoint_branch"); hits != 2 {
		t.Fatalf("second cached point: %d branches recorded, want 2", hits)
	}
}
