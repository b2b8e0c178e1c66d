package backend

import "activepages/internal/sim"

// TB is the subset of *testing.T the conformance suite needs. Declaring
// it here keeps package backend free of a testing import while letting
// every implementation package run the shared suite.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// ConformanceCase parameterizes the shared backend contract checks with
// implementation-specific fixtures.
type ConformanceCase struct {
	// Params is the machine context to price against.
	Params Params
	// OKBind is a function set the backend must admit.
	OKBind []Binding
	// OverBind, when non-nil, is a set that must exceed the backend's
	// capacity constraint and be rejected.
	OverBind []Binding
	// Work lists activations the backend must price without error.
	Work []Work
}

// RunConformance checks the ComputeBackend contract every implementation
// must honor: a stable identity, a positive deterministic compute clock,
// enforced bind capacity, and activation pricing that is deterministic
// and order-independent — the property that makes parallel sweeps'
// merged metric snapshots byte-identical to serial ones.
func RunConformance(t TB, b ComputeBackend, c ConformanceCase) {
	t.Helper()

	if b.Name() == "" {
		t.Fatalf("backend has an empty name")
	}

	period := b.ComputePeriod(c.Params)
	if period <= 0 {
		t.Fatalf("%s: compute period %v is not positive", b.Name(), period)
	}
	if again := b.ComputePeriod(c.Params); again != period {
		t.Errorf("%s: compute period not deterministic: %v then %v", b.Name(), period, again)
	}
	clock := sim.NewClockPeriod(period)

	if err := b.CheckBind(c.Params, c.OKBind); err != nil {
		t.Fatalf("%s: CheckBind rejected the admissible set: %v", b.Name(), err)
	}
	if c.OverBind != nil {
		if err := b.CheckBind(c.Params, c.OverBind); err == nil {
			t.Errorf("%s: CheckBind admitted a set that must exceed capacity", b.Name())
		}
	}

	cost := b.BindCost(c.Params, c.OKBind, clock)
	if again := b.BindCost(c.Params, c.OKBind, clock); again != cost {
		t.Errorf("%s: BindCost not deterministic: %v then %v", b.Name(), cost, again)
	}

	// Price every activation twice: each must succeed, be deterministic,
	// and be positive for nonzero work.
	prices := make([]sim.Duration, len(c.Work))
	for i, w := range c.Work {
		d, err := b.Busy(c.Params, w, clock)
		if err != nil {
			t.Fatalf("%s: Busy(work %d): %v", b.Name(), i, err)
		}
		if w.LogicCycles > 0 || w.Ops.Elems > 0 || w.Ops.Reduces > 0 {
			if d <= 0 {
				t.Errorf("%s: Busy(work %d) = %v for nonzero work; want > 0", b.Name(), i, d)
			}
		}
		prices[i] = d
	}

	// Order independence: pricing the same activations in reverse must
	// reproduce each price exactly. Backends may not keep hidden state.
	for i := len(c.Work) - 1; i >= 0; i-- {
		d, err := b.Busy(c.Params, c.Work[i], clock)
		if err != nil {
			t.Fatalf("%s: Busy(work %d) second pass: %v", b.Name(), i, err)
		}
		if d != prices[i] {
			t.Errorf("%s: Busy(work %d) order-dependent: %v then %v", b.Name(), i, prices[i], d)
		}
	}

	// Merge stability: the summed cost of a sweep must be a plain sum of
	// per-activation prices, so concurrently collected metric snapshots
	// merge to the serial total.
	var forward, backward sim.Duration
	for i := range prices {
		forward += prices[i]
		backward += prices[len(prices)-1-i]
	}
	if forward != backward {
		t.Errorf("%s: summed busy time order-dependent: %v vs %v", b.Name(), forward, backward)
	}
}
