package radram

import (
	"testing"

	"activepages/internal/backend"
	"activepages/internal/circuits"
	"activepages/internal/logic"
	"activepages/internal/sim"
)

func refParams() backend.Params {
	return backend.Params{
		CPUPeriod:    sim.Nanosecond,
		PageBytes:    512 * 1024,
		LogicDivisor: 10,
	}
}

// TestBackendConformance runs the shared backend contract against the
// RADram cost model. The over-capacity set is the full array function
// family, which the application layer documents as not fitting one
// page's 256-LE budget.
func TestBackendConformance(t *testing.T) {
	backend.RunConformance(t, CostModel{}, backend.ConformanceCase{
		Params: refParams(),
		OKBind: []backend.Binding{
			{Name: "arr-find", Design: circuits.ArrayFind()},
		},
		OverBind: []backend.Binding{
			{Name: "arr-insert", Design: circuits.ArrayInsert()},
			{Name: "arr-delete", Design: circuits.ArrayDelete()},
			{Name: "arr-find", Design: circuits.ArrayFind()},
		},
		Work: []backend.Work{
			{LogicCycles: 1},
			{LogicCycles: 1000},
			{LogicCycles: 1 << 20},
		},
	})
}

// TestComputePeriodMatchesDivisor pins the Table 1 logic clock: the CPU
// period times the configured divisor (reference: 1 GHz / 10 = 100 MHz).
func TestComputePeriodMatchesDivisor(t *testing.T) {
	p := refParams()
	got := CostModel{}.ComputePeriod(p)
	if want := 10 * sim.Nanosecond; got != want {
		t.Errorf("ComputePeriod = %v, want %v", got, want)
	}
}

// TestBusyPricesLogicCycles pins that the RADram model charges exactly
// the reported logic cycles and ignores the bit-serial op vector.
func TestBusyPricesLogicCycles(t *testing.T) {
	p := refParams()
	clock := sim.NewClockPeriod(CostModel{}.ComputePeriod(p))
	w := backend.Work{
		LogicCycles: 42,
		Ops:         backend.Ops{Width: 32, Elems: 1 << 30, Adds: 99},
	}
	got, err := CostModel{}.Busy(p, w, clock)
	if err != nil {
		t.Fatalf("Busy: %v", err)
	}
	if want := clock.Cycles(42); got != want {
		t.Errorf("Busy = %v, want %v (op vector must be ignored)", got, want)
	}
}

// TestBindCostMatchesReconfiguration pins BindCost to the logic layer's
// reconfiguration time for the synthesized set.
func TestBindCostMatchesReconfiguration(t *testing.T) {
	p := refParams()
	clock := sim.NewClockPeriod(CostModel{}.ComputePeriod(p))
	set := []backend.Binding{
		{Name: "arr-find", Design: circuits.ArrayFind()},
	}
	got := CostModel{}.BindCost(p, set, clock)
	want := logic.ReconfigurationTime(logic.Synthesize(circuits.ArrayFind()), clock)
	if got != want {
		t.Errorf("BindCost = %v, want %v", got, want)
	}
}

// TestCatalog pins the backend catalog's invariants: names and
// namespaces are distinct, the empty selector and DefaultConfig name the
// first row, and an unknown selector resolves to nothing.
func TestCatalog(t *testing.T) {
	names, namespaces := map[string]bool{}, map[string]bool{}
	for _, b := range Backends() {
		if b.Name() == "" || b.Label == "" || b.Namespace == "" || b.Namespace == "conv" {
			t.Errorf("row %q: label %q, namespace %q", b.Name(), b.Label, b.Namespace)
		}
		if names[b.Name()] || namespaces[b.Namespace] {
			t.Errorf("row %q: name or namespace %q repeats", b.Name(), b.Namespace)
		}
		names[b.Name()], namespaces[b.Namespace] = true, true
		if got, ok := LookupBackend(b.Name()); !ok || got.Name() != b.Name() {
			t.Errorf("LookupBackend(%q) = %q, %v", b.Name(), got.Name(), ok)
		}
	}
	def := Backends()[0]
	if got, ok := LookupBackend(""); !ok || got.Name() != def.Name() || DefaultBackend().Name() != def.Name() {
		t.Errorf(`LookupBackend("") = %q, %v; DefaultBackend() = %q; want %q`,
			got.Name(), ok, DefaultBackend().Name(), def.Name())
	}
	if got := DefaultConfig().BackendName(); got != def.Name() {
		t.Errorf("DefaultConfig installs %q, want the default %q", got, def.Name())
	}
	if _, ok := LookupBackend("RADram"); ok {
		t.Error(`LookupBackend("RADram") resolved; selectors are the lower-case names`)
	}
}

// TestNewRefusesConfigWithoutBackend checks that a configuration with no
// compute backend is an error, not a silent RADram machine.
func TestNewRefusesConfigWithoutBackend(t *testing.T) {
	if _, err := New(DefaultConfig().WithBackend(nil)); err == nil {
		t.Fatal("New accepted a configuration without a backend")
	}
}
