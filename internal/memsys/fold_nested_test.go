package memsys

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"activepages/internal/sim"
)

// refNested replays a nested stream's exact scalar ground truth on a
// hierarchy: macro-iteration i runs every inner iteration of accs (with
// per-entry stride overrides) and then every tail entry once, through the
// same AccessRange/AccessElems calls NestedStreamRun's contract names.
func refNested(h *Hierarchy, base uint64, outerStride int64, outerN uint64,
	innerStride int64, innerN uint64, accs, tail []StreamAcc) sim.Duration {
	if len(accs) == 0 {
		innerN = 0
	}
	if outerN == 0 || (innerN == 0 && len(tail) == 0) {
		return 0
	}
	var total sim.Duration
	for i := uint64(0); i < outerN; i++ {
		b := base + uint64(outerStride)*i
		for j := uint64(0); j < innerN; j++ {
			for k := range accs {
				a := &accs[k]
				addr := b + uint64(a.stride(innerStride))*j + uint64(a.Off)
				if a.Count > 1 {
					total += h.AccessElems(addr, a.Size, a.Count, a.Kind)
				} else {
					total += h.AccessRange(addr, a.Size, a.Kind)
				}
			}
		}
		for k := range tail {
			a := &tail[k]
			addr := b + uint64(a.Off)
			if a.Count > 1 {
				total += h.AccessElems(addr, a.Size, a.Count, a.Kind)
			} else {
				total += h.AccessRange(addr, a.Size, a.Kind)
			}
		}
	}
	return total
}

// TestNestedStreamMatchesReference drives twin hierarchies through random
// stencil-shaped nests — a row sweep of reads around the macro-iteration
// base, a write to a second far-away region, and a scalar tail — and
// requires identical latency, statistics, and histogram snapshots after
// every nest. The far output region makes the outer period's subarray
// back-references deeper than the recorded-history limit, so the analytic
// deep-reuse guard is on the verified path, exactly as the median filter's
// interior rows exercise it.
func TestNestedStreamMatchesReference(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	rng := rand.New(rand.NewSource(7))
	// Outer strides whose fold period is short at the default geometry
	// (subarray span 512 KiB dominates), plus one that stays scalar.
	outerStrides := []int64{32768, 65536, -32768, 8192, 24}
	for round := 0; round < 40; round++ {
		outerStride := outerStrides[rng.Intn(len(outerStrides))]
		outerN := uint64(rng.Intn(200) + 60)
		innerN := uint64(rng.Intn(800) + 1)
		innerStride := int64(2 << rng.Intn(3))
		base := uint64(1)<<24 + uint64(rng.Intn(1<<20))
		if outerStride < 0 {
			base += uint64(outerN) * uint64(-outerStride)
		}
		// Output region far past the walked input span: with distance a
		// multiple of the period delta the first-touch back-reference is
		// deep, with a misaligned distance it is fresh. Both must fold.
		outDelta := int64(1<<23) + int64(rng.Intn(4))*int64(1<<19)
		accs := []StreamAcc{
			{Off: -int64(uint64(absInt64(outerStride))), Size: 2, Count: 1, Kind: Read},
			{Off: 2, Size: 2, Count: 1, Kind: Read},
			{Off: outDelta, Size: 2, Count: 1, Kind: Write},
		}
		tail := []StreamAcc{
			{Off: int64(innerN) * innerStride, Size: 2, Count: 1, Kind: Read},
			{Off: outDelta - 8, Size: 4, Count: 2, Kind: Write},
		}
		if rng.Intn(4) == 0 {
			tail = nil
		}
		if rng.Intn(6) == 0 {
			innerN = 0
		}
		got := fast.NestedStreamRun(base, outerStride, outerN, innerStride, innerN, accs, tail)
		want := refNested(ref, base, outerStride, outerN, innerStride, innerN, accs, tail)
		if got != want {
			t.Fatalf("round %d: NestedStreamRun(%#x,%d,%d,%d,%d) = %v, want %v",
				round, base, outerStride, outerN, innerStride, innerN, got, want)
		}
		statesEqual(t, round, fast, ref)
		if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
			t.Fatalf("round %d: snapshots diverge after nest", round)
		}
		// Random scalar traffic between nests surfaces any residual state
		// the fold failed to reconstruct.
		for i := 0; i < 24; i++ {
			addr := uint64(rng.Intn(1 << 22))
			size := uint64(rng.Intn(64) + 1)
			k := randKind(rng)
			if g, w := fast.AccessRange(addr, size, k), ref.AccessRange(addr, size, k); g != w {
				t.Fatalf("round %d: post-nest access %d diverges: %v != %v", round, i, g, w)
			}
		}
		statesEqual(t, round, fast, ref)
	}
	if fast.Folds.NestedStreams == 0 || fast.Folds.Folded == 0 {
		t.Fatalf("no nest ever folded: %+v", fast.Folds)
	}
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestNestedStreamFoldEngages pins the tentpole case: a median-style
// interior-row nest (three stencil reads, one far write, clamped-column
// tail) long enough for several outer periods must verify and fold, not
// fall back — the deep back-reference from the output region to the input
// region is resolved by the analytic guard instead of disqualifying the
// pattern.
func TestNestedStreamFoldEngages(t *testing.T) {
	h := New(DefaultConfig())
	rowB := int64(32768)
	innerN := uint64(2047)
	outerN := uint64(256)
	base := uint64(1) << 25
	outDelta := int64(20) * rowB * 16 // many periods away, delta-aligned
	accs := []StreamAcc{
		{Off: -rowB + 2, Size: 2, Count: 1, Kind: Read},
		{Off: 2, Size: 2, Count: 1, Kind: Read},
		{Off: rowB + 2, Size: 2, Count: 1, Kind: Read},
		{Off: outDelta, Size: 2, Count: 1, Kind: Write},
	}
	tail := []StreamAcc{
		{Off: -rowB, Size: 2, Count: 1, Kind: Read},
		{Off: 0, Size: 2, Count: 1, Kind: Read},
		{Off: rowB, Size: 2, Count: 1, Kind: Read},
		{Off: outDelta + int64(innerN)*2, Size: 2, Count: 1, Kind: Write},
	}
	h.NestedStreamRun(base, rowB, outerN, 2, innerN, accs, tail)
	f := h.Folds
	if f.NestedStreams != 1 || f.Folded != 1 || f.FoldedPeriods == 0 {
		t.Fatalf("median-style nest did not fold: %+v", f)
	}
	if f.FoldedIters == 0 || f.FoldedIters%innerN != 0 {
		t.Fatalf("folded-iteration accounting off: %+v", f)
	}
}

// TestNestedEmptyInnerLoop pins the empty-inner-loop spelling of a nest:
// with innerN == 0 the inner entries never run, so the nest must classify,
// fold, and leave the hierarchy exactly as the same nest written without
// them — the shape of the median filter's interior rows on a one-pixel-wide
// image. Both spellings must also match the scalar reference.
func TestNestedEmptyInnerLoop(t *testing.T) {
	rowB := int64(65536)
	base := uint64(1) << 25
	accs := []StreamAcc{
		{Off: -rowB + 2, Size: 2, Count: 1, Kind: Read},
		{Off: 2, Size: 2, Count: 1, Kind: Read},
		{Off: rowB + 2, Size: 2, Count: 1, Kind: Read},
	}
	tail := []StreamAcc{
		{Off: -rowB, Size: 2, Count: 1, Kind: Read},
		{Off: 0, Size: 2, Count: 1, Kind: Read},
		{Off: rowB, Size: 2, Count: 1, Kind: Read},
		{Off: 1 << 24, Size: 2, Count: 1, Kind: Write},
	}
	ref := New(DefaultConfig())
	ref.Reference = true
	want := refNested(ref, base, rowB, 200, 2, 0, accs, tail)
	var cks [2]Checkpoint
	for i, inner := range [][]StreamAcc{accs, nil} {
		h := New(DefaultConfig())
		if got := h.NestedStreamRun(base, rowB, 200, 2, 0, inner, tail); got != want {
			t.Fatalf("spelling %d: NestedStreamRun = %v, want %v", i, got, want)
		}
		statesEqual(t, i, h, ref)
		if !bytes.Equal(snapshotJSON(t, h), snapshotJSON(t, ref)) {
			t.Fatalf("spelling %d: snapshot diverges from the reference", i)
		}
		if f := h.Folds; f.Folded != 1 || f.FallbackWrap != 0 {
			t.Fatalf("spelling %d: empty-inner-loop nest did not fold: %+v", i, f)
		}
		h.Checkpoint(&cks[i])
	}
	if !reflect.DeepEqual(cks[0], cks[1]) {
		t.Fatal("the two spellings left different hierarchy state or fold counts")
	}
}

// TestStreamPerEntryStrideMatchesReference drives the flat stream batcher
// with heterogeneous per-entry stride overrides — the LCS row shape: a
// byte-stride operand read against halfword-stride table accesses — and
// requires exact equivalence with the scalar reference. Heterogeneous
// strides are ineligible for folding, so this pins the batched scalar
// path's per-entry address arithmetic.
func TestStreamPerEntryStrideMatchesReference(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 60; round++ {
		base := uint64(1)<<22 + uint64(rng.Intn(1<<20))
		n := uint64(rng.Intn(4000) + 1)
		bOff := -int64(rng.Intn(1 << 16))
		accs := []StreamAcc{
			{Off: bOff, Size: 1, Count: 1, Kind: Read, Stride: 1},
			{Off: -int64(n) * 2, Size: 2, Count: 1, Kind: Read},
			{Size: 2, Count: 1, Kind: Write},
		}
		if rng.Intn(3) == 0 {
			accs[1].Stride = 4 // three distinct rates in one stream
		}
		got := fast.StreamRun(base, 2, n, accs)
		var want sim.Duration
		for i := uint64(0); i < n; i++ {
			for k := range accs {
				a := &accs[k]
				addr := base + uint64(a.stride(2))*i + uint64(a.Off)
				want += ref.AccessRange(addr, a.Size, a.Kind)
			}
		}
		if got != want {
			t.Fatalf("round %d: StreamRun with stride overrides = %v, want %v", round, got, want)
		}
		statesEqual(t, round, fast, ref)
		if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
			t.Fatalf("round %d: snapshots diverge", round)
		}
	}
	if fast.Folds.FallbackIneligible == 0 {
		t.Fatalf("heterogeneous strides unexpectedly eligible: %+v", fast.Folds)
	}
}
