package radram

import (
	"fmt"

	"activepages/internal/backend"
	"activepages/internal/logic"
	"activepages/internal/sim"
)

// CostModel is the RADram compute backend: per-subarray reconfigurable
// logic clocked at a divisor of the CPU clock, a 256-LE area budget per
// page, and activation cost equal to the function's reported logic-cycle
// count. It reproduces exactly the arithmetic the core runtime used
// before the backend split, so RADram results are bit-for-bit unchanged.
type CostModel struct{}

// Name returns the backend selector name.
func (CostModel) Name() string { return "radram" }

// ComputePeriod derives the reconfigurable-logic clock from the CPU
// clock: period × divisor (Table 1: 1 GHz / 10 = 100 MHz).
func (CostModel) ComputePeriod(p backend.Params) sim.Duration {
	return p.CPUPeriod * sim.Duration(p.LogicDivisor)
}

// CheckBind enforces the per-page LE area budget over the synthesized
// function set.
func (CostModel) CheckBind(p backend.Params, set []backend.Binding) error {
	total := 0
	for _, b := range set {
		total += logic.Synthesize(b.Design).LEs
	}
	if total > logic.PageLEBudget {
		return fmt.Errorf("function set needs %d LEs, budget is %d (re-bind a smaller set)",
			total, logic.PageLEBudget)
	}
	return nil
}

// BindCost sums the configuration-bitstream load time of the set.
func (CostModel) BindCost(p backend.Params, set []backend.Binding, clock sim.Clock) sim.Duration {
	var reconfig sim.Duration
	for _, b := range set {
		reconfig += logic.ReconfigurationTime(logic.Synthesize(b.Design), clock)
	}
	return reconfig
}

// Busy prices one activation: the reported logic cycles in the logic
// clock domain.
func (CostModel) Busy(p backend.Params, w backend.Work, clock sim.Clock) (sim.Duration, error) {
	return clock.Cycles(w.LogicCycles), nil
}
