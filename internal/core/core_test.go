package core

import (
	"fmt"
	"strings"
	"testing"

	"activepages/internal/backend"
	"activepages/internal/cache"
	"activepages/internal/logic"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/proc"
	"activepages/internal/sim"
)

// testModel is a package-local ComputeBackend with the RADram reference
// semantics (divided CPU clock, LE area budget, cycle-count pricing), so
// the core tests exercise the runtime without depending on an
// implementation package.
type testModel struct{}

func (testModel) Name() string { return "test" }

func (testModel) ComputePeriod(p backend.Params) sim.Duration {
	return p.CPUPeriod * sim.Duration(p.LogicDivisor)
}

func (testModel) CheckBind(p backend.Params, set []backend.Binding) error {
	total := 0
	for _, b := range set {
		total += logic.Synthesize(b.Design).LEs
	}
	if total > logic.PageLEBudget {
		return fmt.Errorf("function set needs %d LEs, budget is %d", total, logic.PageLEBudget)
	}
	return nil
}

func (testModel) BindCost(p backend.Params, set []backend.Binding, clock sim.Clock) sim.Duration {
	var d sim.Duration
	for _, b := range set {
		d += logic.ReconfigurationTime(logic.Synthesize(b.Design), clock)
	}
	return d
}

func (testModel) Busy(p backend.Params, w backend.Work, clock sim.Clock) (sim.Duration, error) {
	return clock.Cycles(w.LogicCycles), nil
}

// testConfig is DefaultConfig with the test backend installed.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Backend = testModel{}
	return cfg
}

// fillFn is a toy Active-Page function: fill a region with a byte and burn
// one logic cycle per byte.
type fillFn struct{ les int }

func (f *fillFn) Name() string { return "fill" }

func (f *fillFn) Design() *logic.Design {
	les := f.les
	if les == 0 {
		les = 50
	}
	d := logic.NewDesign("fill")
	d.OnPath(logic.Primitive{Kind: logic.RawLUTs, Ways: les, Width: 1})
	return d
}

func (f *fillFn) Run(ctx *PageContext) (Result, error) {
	off, n, b := ctx.Args[0], ctx.Args[1], byte(ctx.Args[2])
	ctx.Fill(off, n, b)
	return ctx.Finish(n)
}

// copyFn copies from a remote page via a mediated inter-page reference.
type copyFn struct{}

func (copyFn) Name() string { return "remote-copy" }

func (copyFn) Design() *logic.Design {
	d := logic.NewDesign("remote-copy")
	d.OnPath(logic.Primitive{Kind: logic.RawLUTs, Ways: 40, Width: 1})
	return d
}

func (copyFn) Run(ctx *PageContext) (Result, error) {
	src, n := ctx.Args[0], ctx.Args[1]
	ctx.MediatedCopy(4096, src, n)
	return ctx.Finish(n)
}

func newSys(t *testing.T) *System {
	t.Helper()
	store := mem.NewStore()
	cpu := proc.New(proc.DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
	cfg := testConfig()
	cfg.PageBytes = 64 * 1024 // keep tests light
	s, err := NewSystem(cfg, cpu)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	store := mem.NewStore()
	cpu := proc.New(proc.DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
	bad := testConfig()
	bad.PageBytes = 1000
	if _, err := NewSystem(bad, cpu); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	bad = testConfig()
	bad.LogicDivisor = 0
	if _, err := NewSystem(bad, cpu); err == nil {
		t.Error("zero logic divisor accepted")
	}
	bad = testConfig()
	bad.ActivationWords = 0
	if _, err := NewSystem(bad, cpu); err == nil {
		t.Error("zero activation words accepted")
	}
	bad = DefaultConfig()
	if _, err := NewSystem(bad, cpu); err == nil {
		t.Error("nil compute backend accepted")
	}
}

func TestLogicClockFromDivisor(t *testing.T) {
	s := newSys(t)
	// 1 GHz CPU / divisor 10 = 100 MHz.
	if got := s.LogicClock().Hz(); got != 100_000_000 {
		t.Fatalf("logic clock = %d Hz, want 100 MHz", got)
	}
}

func TestAllocSemantics(t *testing.T) {
	s := newSys(t)
	p, err := s.Alloc("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index != 0 || p.Group() != "g" {
		t.Fatalf("page = %+v", p)
	}
	if _, err := s.Alloc("g", 0); err == nil {
		t.Error("double alloc accepted")
	}
	if _, err := s.Alloc("g", 100); err == nil {
		t.Error("unaligned alloc accepted")
	}
	if _, ok := s.PageAt(10); !ok {
		t.Error("PageAt missed an allocated page")
	}
	if _, ok := s.PageAt(s.cfg.PageBytes); ok {
		t.Error("PageAt found an unallocated page")
	}
}

func TestAllocRange(t *testing.T) {
	s := newSys(t)
	pages, err := s.AllocRange("g", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 5 {
		t.Fatalf("got %d pages", len(pages))
	}
	g, ok := s.Group("g")
	if !ok || len(g.Pages()) != 5 {
		t.Fatal("group bookkeeping wrong")
	}
	for i, p := range pages {
		if p.Index != uint64(i) {
			t.Errorf("page %d has index %d", i, p.Index)
		}
	}
}

func TestBindBudgetEnforced(t *testing.T) {
	s := newSys(t)
	if _, err := s.Alloc("g", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("g", &fillFn{les: 50}); err != nil {
		t.Fatalf("small bind rejected: %v", err)
	}
	if err := s.Bind("g", &fillFn{les: 300}); err == nil {
		t.Fatal("over-budget bind accepted")
	}
	if err := s.Bind("nosuch", &fillFn{}); err == nil {
		t.Fatal("bind to unknown group accepted")
	}
}

func TestActivateRunsFunctionally(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	if err := s.Bind("g", &fillFn{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(p, "fill", 1024, 256, 0xAB); err != nil {
		t.Fatal(err)
	}
	s.Wait(p)
	if got := s.CPU().Store().ByteAt(1024); got != 0xAB {
		t.Fatalf("page data = %#x, want 0xAB", got)
	}
	if p.Activations != 1 {
		t.Fatal("activation not counted")
	}
}

func TestActivateUnknownFunction(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	if err := s.Activate(p, "nope"); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("err = %v", err)
	}
}

func TestActivationChargesProcessorTime(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	s.Bind("g", &fillFn{})
	before := s.CPU().Now()
	s.Activate(p, "fill", 0, 16, 1)
	dispatch := s.CPU().Now() - before
	if dispatch == 0 {
		t.Fatal("activation was free")
	}
	if p.ActivationTime != dispatch {
		t.Fatalf("page T_A = %v, dispatch charge = %v", p.ActivationTime, dispatch)
	}
}

func TestPageComputesInBackground(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	s.Bind("g", &fillFn{})
	// 10000 logic cycles at 100 MHz = 100 us.
	s.Activate(p, "fill", 0, 10000, 7)
	activationEnd := s.CPU().Now()
	if p.DoneAt() != activationEnd+100*sim.Microsecond {
		t.Fatalf("doneAt = %v, want activation end + 100us", p.DoneAt())
	}
	// Processor has not advanced: computation overlaps.
	if s.CPU().Now() != activationEnd {
		t.Fatal("activation blocked the processor")
	}
	s.Wait(p)
	if got := s.CPU().Stats.NonOverlapTime; got < 99*sim.Microsecond {
		t.Fatalf("non-overlap = %v, want ~100us", got)
	}
}

func TestOverlappedComputationHidesPageTime(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	s.Bind("g", &fillFn{})
	s.Activate(p, "fill", 0, 1000, 7) // 10 us of page work
	s.CPU().Compute(20_000)           // 20 us of overlapped processor work
	s.Wait(p)
	if got := s.CPU().Stats.NonOverlapTime; got != 0 {
		t.Fatalf("non-overlap = %v, want 0 (fully overlapped)", got)
	}
}

func TestSerializedActivationsOnOnePage(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	s.Bind("g", &fillFn{})
	s.Activate(p, "fill", 0, 1000, 1)
	first := p.DoneAt()
	s.Activate(p, "fill", 0, 1000, 2)
	// The second activation waits for the first: the page has one logic
	// block.
	if p.DoneAt() < first+10*sim.Microsecond {
		t.Fatalf("second activation (%v) did not queue behind first (%v)", p.DoneAt(), first)
	}
}

func TestParallelPagesOverlap(t *testing.T) {
	s := newSys(t)
	pages, _ := s.AllocRange("g", 0, 8)
	s.Bind("g", &fillFn{})
	for _, p := range pages {
		s.Activate(p, "fill", 0, 10000, 5) // 100 us each
	}
	s.WaitGroup("g")
	total := s.CPU().Now()
	// Eight pages in parallel should take ~100us + dispatch, nowhere near
	// 800 us.
	if total > 300*sim.Microsecond {
		t.Fatalf("8 parallel pages took %v; they are not overlapping", total)
	}
}

func TestPollChargesRead(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	s.Bind("g", &fillFn{})
	s.Activate(p, "fill", 0, 50000, 5)
	loads := s.CPU().Stats.Loads
	done := s.Poll(p)
	if done {
		t.Fatal("page reported done immediately")
	}
	if s.CPU().Stats.Loads != loads+1 {
		t.Fatal("poll did not charge a read")
	}
	s.Wait(p)
	if !s.Poll(p) {
		t.Fatal("page not done after Wait")
	}
}

// TestCacheInvalidationOnPageWrite checks the coherence rule: a page write
// drops the processor's cached copies of the written bytes, counting each
// dropped line once in Stats.Invalidates. The caches reach the stale line
// three ways: a load, a checkpoint restored into a fresh hierarchy, and a
// load after a flush.
func TestCacheInvalidationOnPageWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		warm func(t *testing.T, s *System)
	}{
		{"load", func(t *testing.T, s *System) { s.CPU().LoadU32(2048) }},
		{"restored", func(t *testing.T, s *System) {
			donor := newSys(t)
			donor.CPU().LoadU32(2048)
			var ck memsys.Checkpoint
			donor.Hier().Checkpoint(&ck)
			s.Hier().Restore(&ck)
		}},
		{"flushed", func(t *testing.T, s *System) {
			s.CPU().LoadU32(1 << 20)
			s.Hier().FlushData()
			s.CPU().LoadU32(2048)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t)
			p, _ := s.Alloc("g", 0)
			s.Bind("g", &fillFn{})
			tc.warm(t, s)
			h := s.Hier()
			if !h.L1D.Lookup(2048) || !h.L2.Lookup(2048) {
				t.Fatal("line not resident after warming")
			}
			resident := residentLines(h.L1D, 2048, 64) + residentLines(h.L2, 2048, 64)
			before := h.L1D.Stats.Invalidates + h.L2.Stats.Invalidates
			s.Activate(p, "fill", 2048, 64, 0xFF)
			if h.L1D.Lookup(2048) || h.L2.Lookup(2048) {
				t.Fatal("stale line survived page write")
			}
			if got := h.L1D.Stats.Invalidates + h.L2.Stats.Invalidates - before; got != resident {
				t.Fatalf("Invalidates grew by %d, want the %d lines dropped", got, resident)
			}
			s.Wait(p)
			if got := s.CPU().LoadU32(2048); got != 0xFFFFFFFF {
				t.Fatalf("processor read stale data %#x", got)
			}
		})
	}
}

// residentLines counts c's resident lines overlapping [addr, addr+size).
func residentLines(c *cache.Cache, addr, size uint64) uint64 {
	var n uint64
	for a := addr &^ (c.LineBytes() - 1); a < addr+size; a += c.LineBytes() {
		if c.Lookup(a) {
			n++
		}
	}
	return n
}

// Hier exposes the hierarchy for tests.
func (s *System) Hier() *memsys.Hierarchy { return s.hier }

func TestMediatedCopyDelaysAndBills(t *testing.T) {
	s := newSys(t)
	producer, _ := s.Alloc("g", 0)
	consumer, _ := s.Alloc("g", s.cfg.PageBytes)
	s.Bind("g", &fillFn{}, copyFn{})

	// Producer fills its page slowly.
	s.Activate(producer, "fill", 0, 50000, 0x42) // 500 us
	producerDone := producer.DoneAt()

	// Consumer copies 64 bytes from the producer's page.
	s.Activate(consumer, "remote-copy", 0, 64)
	if consumer.DoneAt() <= producerDone {
		t.Fatalf("consumer (%v) finished before its dependency (%v)", consumer.DoneAt(), producerDone)
	}
	if s.Stats.InterPageTransfers != 1 || s.Stats.InterPageBytes != 64 {
		t.Fatalf("inter-page stats = %+v", s.Stats)
	}
	s.Wait(consumer)
	if s.CPU().Stats.MediationTime == 0 {
		t.Fatal("mediation work never billed to the processor")
	}
	// The copied data must be present.
	if got := s.CPU().Store().ByteAt(s.cfg.PageBytes + 4096); got != 0x42 {
		t.Fatalf("mediated copy data = %#x", got)
	}
}

func TestContextBoundsChecked(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	ctx := &PageContext{sys: s, page: p}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-page access did not panic")
		}
	}()
	ctx.WriteU32(s.cfg.PageBytes-2, 1)
}

func TestContextAccessors(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", s.cfg.PageBytes) // page 1
	ctx := &PageContext{sys: s, page: p}
	if ctx.Addr(16) != s.cfg.PageBytes+16 {
		t.Fatal("address mapping wrong")
	}
	ctx.WriteU16(0, 0xABCD)
	if ctx.ReadU16(0) != 0xABCD {
		t.Fatal("u16 round trip")
	}
	ctx.WriteU32(4, 0x11223344)
	if ctx.ReadU32(4) != 0x11223344 {
		t.Fatal("u32 round trip")
	}
	ctx.WriteU64(8, 99)
	if ctx.ReadU64(8) != 99 {
		t.Fatal("u64 round trip")
	}
	buf := []byte{1, 2, 3}
	ctx.Write(100, buf)
	got := make([]byte, 3)
	ctx.Read(100, got)
	if got[2] != 3 {
		t.Fatal("block round trip")
	}
	ctx.Move(200, 100, 3)
	ctx.Read(200, got)
	if got[0] != 1 {
		t.Fatal("move")
	}
	// written bounding box covers everything written.
	if !ctx.written.Contains(ctx.Addr(0)) || !ctx.written.Contains(ctx.Addr(202)) {
		t.Fatalf("written range %+v misses writes", ctx.written)
	}
}

func TestBindChargesReconfigWhenConfigured(t *testing.T) {
	store := mem.NewStore()
	cpu := proc.New(proc.DefaultConfig(), memsys.New(memsys.DefaultConfig()), store)
	cfg := testConfig()
	cfg.PageBytes = 64 * 1024
	cfg.ChargeBind = true
	s, err := NewSystem(cfg, cpu)
	if err != nil {
		t.Fatal(err)
	}
	s.Alloc("g", 0)
	before := cpu.Now()
	if err := s.Bind("g", &fillFn{}); err != nil {
		t.Fatal(err)
	}
	if cpu.Now() == before {
		t.Fatal("ChargeBind did not charge reconfiguration time")
	}
	if s.Stats.ReconfigTime == 0 {
		t.Fatal("reconfiguration time not recorded")
	}
}

func TestDelayUntil(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	ctx := &PageContext{sys: s, page: p}
	ctx.DelayUntil(500)
	ctx.DelayUntil(200) // earlier bound is subsumed
	res, err := ctx.Finish(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadyAt != 500 || res.LogicCycles != 10 {
		t.Fatalf("result = %+v", res)
	}
}

func TestMediationCostComponents(t *testing.T) {
	s := newSys(t)
	p, _ := s.Alloc("g", 0)
	ctx := &PageContext{sys: s, page: p}
	// 200 interrupt instructions at 1 GHz + two bus crossings of 64 bytes
	// (16 beats each at 10 ns).
	want := 200*sim.Nanosecond + 2*160*sim.Nanosecond
	if got := ctx.MediationCost(64); got != want {
		t.Fatalf("mediation cost = %v, want %v", got, want)
	}
}

func TestStreamedCopyBillsOneInterrupt(t *testing.T) {
	s := newSys(t)
	src, _ := s.Alloc("g", 0)
	dst, _ := s.Alloc("g", s.cfg.PageBytes)
	_ = src
	ctx := &PageContext{sys: s, page: dst}
	ctx.StreamedCopy(0, 128, 1024, 8)
	// One interrupt (200 cycles) plus 8 chunks of 128 bytes crossing the
	// bus twice: 8 * 2 * 32 beats * 10ns.
	want := 200*sim.Nanosecond + 8*2*320*sim.Nanosecond
	if s.pendingMediation != want {
		t.Fatalf("pending mediation = %v, want %v", s.pendingMediation, want)
	}
	if s.Stats.InterPageTransfers != 8 || s.Stats.InterPageBytes != 1024 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	// The copy happened functionally.
	s.CPU().Store().SetByte(128, 0xEE)
	ctx.StreamedCopy(4096, 128, 1, 1)
	if s.CPU().Store().ByteAt(dst.Base+4096) != 0xEE {
		t.Fatal("streamed copy did not move data")
	}
}

func TestStreamedCopyImposesNoWholePageDependency(t *testing.T) {
	s := newSys(t)
	producer, _ := s.Alloc("g", 0)
	consumer, _ := s.Alloc("g", s.cfg.PageBytes)
	s.Bind("g", &fillFn{})
	s.Activate(producer, "fill", 0, 50000, 1) // producer busy 500us
	ctx := &PageContext{sys: s, page: consumer}
	ctx.StreamedCopy(0, 64, 64, 4)
	res, _ := ctx.Finish(10)
	// Unlike MediatedCopy, the streamed form leaves ReadyAt at zero — the
	// caller pipelines explicitly with DelayUntil.
	if res.ReadyAt != 0 {
		t.Fatalf("streamed copy set ReadyAt %v", res.ReadyAt)
	}
}
