// Package backend defines the compute-backend abstraction of the Active
// Pages model. The paper's interface (Section 2) is deliberately neutral
// about what executes next to the data: RADram's per-subarray
// reconfigurable logic is one implementation point among several the
// paper names (Section 9 discusses processor-in-memory and SIMD-style
// substrates). A ComputeBackend captures everything implementation-
// specific that the core runtime needs priced:
//
//   - the compute clock (RADram: CPU clock / divisor; bit-serial DRAM:
//     the row-operation cycle),
//   - the per-activation execution cost (RADram: reported logic cycles;
//     bit-serial: row activations as a function of operand bit-width and
//     op counts),
//   - the bind-time capacity constraint (RADram: the 256-LE area budget;
//     bit-serial: a compute-row allocation budget), and
//   - the bind-time reconfiguration cost.
//
// The core runtime (package core) owns everything backend-independent —
// allocation, groups, dispatch charging, synchronization, inter-page
// mediation — and consults the configured ComputeBackend wherever the
// original implementation hard-wired RADram arithmetic.
package backend

import (
	"activepages/internal/logic"
	"activepages/internal/sim"
)

// Params is the machine context a backend prices against. It is derived
// once per system from the processor and page configuration.
type Params struct {
	// CPUPeriod is the processor clock period.
	CPUPeriod sim.Duration
	// PageBytes is the superpage (subarray) size.
	PageBytes uint64
	// LogicDivisor is the configured CPU-to-logic clock ratio. Backends
	// whose compute clock is not derived from the CPU clock ignore it.
	LogicDivisor uint64
}

// BitSerial describes a page function's bit-serial port: what a
// row-parallel SIMD backend needs to know to admit and price it.
type BitSerial struct {
	// Width is the function's operand width in bits.
	Width int
	// TempRows is how many DRAM rows the function reserves in every
	// subarray while bound: operand copies, carry and flag rows, and the
	// majority/NOT microprogram.
	TempRows int
}

// Binding is one function of an AP_functions set as a backend sees it at
// bind time.
type Binding struct {
	// Name is the function's activation name.
	Name string
	// Design is the function's circuit, for area-model backends.
	Design *logic.Design
	// BitSerial is the function's bit-serial port; nil when the function
	// has none (it then binds only on area-model backends).
	BitSerial *BitSerial
}

// Ops is an activation's operation vector in backend-neutral terms: how
// many elements were processed and how many primitive operations each
// element cost. Area-model backends ignore it (they price the reported
// logic cycles); bit-serial backends price it in row activations.
type Ops struct {
	// Width is the operand width in bits the counts below are priced at.
	Width int
	// Elems is the number of data elements processed in parallel lanes.
	Elems uint64
	// Copies, Nots, Bools, Adds, Cmps count primitive operations per
	// element: row-to-row copies, bitwise NOTs, two-input boolean ops,
	// additions/subtractions, and full comparisons.
	Copies, Nots, Bools, Adds, Cmps uint64
	// Reduces counts whole-page tree reductions (e.g. a match count),
	// each costing a log2(lanes)-deep combine.
	Reduces uint64
}

// Add accumulates another vector's counts element-wise. Elems and Width
// follow the larger operand so a function can merge per-phase vectors.
func (o Ops) Add(p Ops) Ops {
	if p.Width > o.Width {
		o.Width = p.Width
	}
	if p.Elems > o.Elems {
		o.Elems = p.Elems
	}
	o.Copies += p.Copies
	o.Nots += p.Nots
	o.Bools += p.Bools
	o.Adds += p.Adds
	o.Cmps += p.Cmps
	o.Reduces += p.Reduces
	return o
}

// Work is one activation's reported cost.
type Work struct {
	// LogicCycles is the function's cycle count in the compute clock
	// domain — the quantity area-model backends price directly.
	LogicCycles uint64
	// Ops is the operation vector bit-serial backends price instead. A
	// zero vector means the function has not been ported.
	Ops Ops
}

// ComputeBackend is a page-compute implementation's cost model. All
// methods must be pure functions of their arguments — the simulator
// relies on deterministic, scheduling-independent pricing.
type ComputeBackend interface {
	// Name returns the backend's selector name.
	Name() string
	// ComputePeriod derives the backend's compute clock period.
	ComputePeriod(p Params) sim.Duration
	// CheckBind validates a function set against the backend's capacity
	// constraint (area budget, row budget, ...).
	CheckBind(p Params, set []Binding) error
	// BindCost prices installing the set on one page, in the compute
	// clock domain given by clock.
	BindCost(p Params, set []Binding, clock sim.Clock) sim.Duration
	// Busy prices one activation's execution. It returns an error when
	// the work is not expressible on this backend (e.g. a function that
	// reported no op vector to a bit-serial backend).
	Busy(p Params, w Work, clock sim.Clock) (sim.Duration, error)
}
