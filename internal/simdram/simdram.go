// Package simdram models a bit-serial row-parallel compute backend in
// the style of the SIMDRAM / Ambit line of work (PAPERS.md: arXiv
// 2012.11890, 2105.12839): computation happens inside the DRAM subarray
// by activating multiple rows at once, so charge sharing computes a
// bitwise majority (MAJ) across them, with a dual-contact NOT row for
// negation. Every SIMD operation is a microprogram of AAP
// (ACTIVATE-ACTIVATE-PRECHARGE) row cycles over a vertical, bit-sliced
// data layout: one DRAM row holds bit i of every element, so a W-bit
// operation costs O(W) row cycles regardless of how many elements — up
// to one per bitline — are processed in parallel.
//
// The resulting cost model is the dual of RADram's:
//
//   - no logic-area budget (there are no LEs), but a compute-row budget:
//     each bound function reserves operand/carry/microprogram rows in
//     every subarray, and the reserved rows must fit the backend's pool;
//   - the compute clock is the DRAM row-op cycle, independent of the CPU
//     clock and of the Table 1 logic divisor;
//   - per-activation cost = (AAPs per element-wave) × ceil(elems/lanes)
//   - reduction AAPs, where the per-element AAP counts scale linearly
//     with operand bit-width.
//
// All arithmetic is integral, so the model is exactly deterministic and
// has a closed form the property tests pin (see AAPs).
package simdram

import (
	"fmt"
	"math/bits"

	"activepages/internal/backend"
	"activepages/internal/sim"
)

// Default cost-model parameters.
const (
	// DefaultRowOpTime is one AAP row cycle. The SIMDRAM papers report
	// ~49 ns per AAP on DDR4 timings; on the paper's 1998-era DRAM we
	// round the full activate-activate-precharge sequence to 100 ns —
	// one conventional access time of the Table 1 machine.
	DefaultRowOpTime = 100 * sim.Nanosecond
	// DefaultRowBytes is the physical row width of a subarray: 1 KB
	// rows give 8192 one-bit lanes.
	DefaultRowBytes = 1024
	// DefaultRowBudget is the pool of designated compute rows per
	// subarray available for bound functions' operands, carries, and
	// microprograms.
	DefaultRowBudget = 96
)

// AAP counts per primitive, per operand bit. A copy is one AAP per bit
// row (RowClone-style); NOT adds the dual-contact row trip; a two-input
// boolean op needs a triple-row init plus the MAJ activation; a full
// adder is the canonical MAJ/NOT decomposition (~7 AAPs per bit); a
// comparison is bitwise XNOR plus the combining tree.
const (
	CopyAAPsPerBit = 1
	NotAAPsPerBit  = 1
	BoolAAPsPerBit = 2
	AddAAPsPerBit  = 7
	CmpAAPsPerBit  = 6
)

// CostModel implements backend.ComputeBackend with bit-serial pricing.
// The zero value is not valid; use Default or fill every field.
type CostModel struct {
	// RowOpTime is the duration of one AAP row cycle — the backend's
	// compute clock period.
	RowOpTime sim.Duration
	// RowBytes is the subarray row width in bytes; lanes = 8×RowBytes.
	RowBytes uint64
	// RowBudget is the per-subarray pool of compute rows that bound
	// functions' reservations must fit.
	RowBudget int
	// ForceWidth, when nonzero, prices every operation at this operand
	// width instead of the function's declared width — the bit-width
	// axis of the crossover study.
	ForceWidth int
}

// Default returns the reference SIMDRAM cost model.
func Default() CostModel {
	return CostModel{
		RowOpTime: DefaultRowOpTime,
		RowBytes:  DefaultRowBytes,
		RowBudget: DefaultRowBudget,
	}
}

// WithWidth returns the model pricing every op at w bits.
func (c CostModel) WithWidth(w int) CostModel {
	c.ForceWidth = w
	return c
}

// Name returns the backend selector name.
func (CostModel) Name() string { return "simdram" }

// Lanes is the number of one-bit SIMD lanes per subarray: one per
// bitline, i.e. eight per row byte.
func (c CostModel) Lanes() uint64 { return 8 * c.RowBytes }

// width resolves the operand width an op vector is priced at.
func (c CostModel) width(declared int) uint64 {
	w := declared
	if c.ForceWidth > 0 {
		w = c.ForceWidth
	}
	if w <= 0 {
		w = 32
	}
	return uint64(w)
}

// AAPs is the closed-form row-cycle count for one activation: the
// per-element microprogram length times the number of full-subarray
// waves, plus a log2(lanes)-deep adder tree per whole-page reduction.
func (c CostModel) AAPs(o backend.Ops) uint64 {
	w := c.width(o.Width)
	perElem := o.Copies*CopyAAPsPerBit*w +
		o.Nots*NotAAPsPerBit*w +
		o.Bools*BoolAAPsPerBit*w +
		o.Adds*AddAAPsPerBit*w +
		o.Cmps*CmpAAPsPerBit*w
	lanes := c.Lanes()
	waves := (o.Elems + lanes - 1) / lanes
	reduceDepth := uint64(bits.Len64(lanes - 1)) // ceil(log2(lanes))
	return waves*perElem + o.Reduces*reduceDepth*AddAAPsPerBit*w
}

// ComputePeriod is the row-op cycle: the compute clock of an in-DRAM
// backend is the DRAM's own timing, not a divided CPU clock.
func (c CostModel) ComputePeriod(p backend.Params) sim.Duration {
	return c.RowOpTime
}

// CheckBind admits a function set when every member has a bit-serial
// port and the set's combined row reservation fits the compute-row pool.
func (c CostModel) CheckBind(p backend.Params, set []backend.Binding) error {
	total := 0
	for _, b := range set {
		if b.BitSerial == nil {
			return fmt.Errorf("function %q has no bit-serial implementation (RADram-only circuit)", b.Name)
		}
		total += b.BitSerial.TempRows
	}
	if total > c.RowBudget {
		return fmt.Errorf("function set reserves %d compute rows, budget is %d (re-bind a smaller set)",
			total, c.RowBudget)
	}
	return nil
}

// BindCost prices installing the set: writing each function's reserved
// rows (operand init and microprogram) costs one row cycle per row.
func (c CostModel) BindCost(p backend.Params, set []backend.Binding, clock sim.Clock) sim.Duration {
	var rows uint64
	for _, b := range set {
		if b.BitSerial != nil {
			rows += uint64(b.BitSerial.TempRows)
		}
	}
	return clock.Cycles(rows)
}

// Busy prices one activation from its op vector. A function that reports
// no vector has not been ported and cannot execute here.
func (c CostModel) Busy(p backend.Params, w backend.Work, clock sim.Clock) (sim.Duration, error) {
	if w.Ops.Elems == 0 && w.Ops.Reduces == 0 {
		return 0, fmt.Errorf("simdram: activation reported no bit-serial op vector (function not ported)")
	}
	return clock.Cycles(c.AAPs(w.Ops)), nil
}

// TempRowsFor is the conventional row reservation for a W-bit function:
// W result/operand rows plus carry, flag, and microprogram rows.
func TempRowsFor(width int) int { return width + 8 }
