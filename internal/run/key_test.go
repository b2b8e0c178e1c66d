package run_test

import (
	"reflect"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/apps/database"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/simdram"
)

// keying is how one checkpoint key treats one configuration field, as
// TestCheckpointKeySoundness observes it on the key's machine.
type keying string

const (
	// unkeyed: the key leaves the field out and the machine never reads it.
	unkeyed keying = "unkeyed"
	// keyed: the key holds the field and the machine's outcome depends on it.
	keyed keying = "keyed"
	// overKeyed: the key holds the field but no run reads it, so two runs
	// that differ only there both simulate instead of one branching from
	// the other.
	overKeyed keying = "over-keyed"
	// unexercised: the key holds a field the machine reads, but array and
	// database at 2 pages never reach it, so the outcome does not change.
	unexercised keying = "unexercised"
)

// configKeying classifies every leaf field of radram.Config for
// ConvCheckpointKey and APCheckpointKey, in that order. The over-keyed
// fields are the known lost sharing: the cache names label error messages
// only, and tier (b), the task-level processor every sweep runs on,
// fetches no instructions, so the L1I is never accessed. The unexercised
// ones are read at other sizes or by other benchmarks. Only matrix does
// floating-point multiplies, and 128 KiB of data fits the L2 at either
// size or associativity. At 2 pages the Active-Page side of array and
// database misses the L1D at most six times, all first touches, hits the
// same DRAM rows at twice the row size, and moves no data between pages,
// so it takes no inter-page interrupt.
var configKeying = map[string][2]keying{
	"CPU.ClockHz":              {keyed, keyed},
	"CPU.FPMulLatency":         {unexercised, unexercised},
	"Mem.L1I.Name":             {overKeyed, overKeyed},
	"Mem.L1I.SizeBytes":        {overKeyed, overKeyed},
	"Mem.L1I.LineBytes":        {overKeyed, overKeyed},
	"Mem.L1I.Assoc":            {overKeyed, overKeyed},
	"Mem.L1D.Name":             {overKeyed, overKeyed},
	"Mem.L1D.SizeBytes":        {keyed, unexercised},
	"Mem.L1D.LineBytes":        {keyed, unexercised},
	"Mem.L1D.Assoc":            {keyed, unexercised},
	"Mem.L2.Name":              {overKeyed, overKeyed},
	"Mem.L2.SizeBytes":         {unexercised, unexercised},
	"Mem.L2.LineBytes":         {keyed, keyed},
	"Mem.L2.Assoc":             {unexercised, unexercised},
	"Mem.L1HitTime":            {keyed, keyed},
	"Mem.L2HitTime":            {keyed, keyed},
	"Mem.Bus.WordBytes":        {keyed, keyed},
	"Mem.Bus.BeatTime":         {keyed, keyed},
	"Mem.DRAM.SubarrayBytes":   {keyed, keyed},
	"Mem.DRAM.RowBytes":        {keyed, unexercised},
	"Mem.DRAM.AccessTime":      {keyed, keyed},
	"Mem.DRAM.RowHitTime":      {keyed, keyed},
	"AP.Backend":               {unkeyed, keyed},
	"AP.PageBytes":             {keyed, keyed},
	"AP.LogicDivisor":          {unkeyed, keyed},
	"AP.ActivationWords":       {unkeyed, keyed},
	"AP.DispatchInstructions":  {unkeyed, keyed},
	"AP.InterruptInstructions": {unkeyed, unexercised},
	"AP.ChargeBind":            {unkeyed, keyed},
}

// machineOutcomes runs each benchmark at 2 pages through Simulate on a
// fresh conventional machine and a fresh Active-Page machine built from
// cfg. Each outcome's snapshot drops the diag.* keys, which describe the
// simulator rather than the simulated machine.
func machineOutcomes(t *testing.T, cfg radram.Config, benches []apps.Benchmark) (conv, ap []run.Outcome) {
	t.Helper()
	r := (&run.Runner{}).WithMetrics()
	for _, b := range benches {
		for _, kind := range []run.Kind{run.Conventional, run.ActivePage} {
			o, err := r.Simulate(b, kind, cfg, 2)
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			o.Snapshot = o.Snapshot.WithoutDiag()
			if kind == run.Conventional {
				conv = append(conv, o)
			} else {
				ap = append(ap, o)
			}
		}
	}
	return conv, ap
}

// leaves lists the index path and dotted name of every field of t that is
// not itself a struct.
func leaves(t reflect.Type, index []int, name string) (paths [][]int, names []string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		n := f.Name
		if name != "" {
			n = name + "." + n
		}
		if f.Type.Kind() == reflect.Struct {
			p, ns := leaves(f.Type, idx, n)
			paths, names = append(paths, p...), append(names, ns...)
			continue
		}
		paths, names = append(paths, idx), append(names, n)
	}
	return paths, names
}

// perturb moves v to another value: a number or duration doubles (zero
// becomes one), a bool flips, a string grows a character, and the compute
// backend switches to SIMDRAM.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(max(2*v.Uint(), 1))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(max(2*v.Int(), 1))
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Interface:
		v.Set(reflect.ValueOf(simdram.Default()))
	default:
		t.Fatalf("%s: no perturbation for a %s field", name, v.Kind())
	}
}

// TestCheckpointKeySoundness perturbs every leaf field of radram.Config,
// one at a time, to another value Validate accepts and compares each
// checkpoint key and each machine's outcome with the unperturbed ones. A
// field a key leaves out must leave that machine's outcome unchanged, or
// the checkpoint cache would answer one configuration with another's
// machine state. A field a key holds whose perturbation changes no
// outcome must be listed as over-keyed (lost sharing, which the test logs)
// or as unexercised. A field configKeying does not classify fails, so a
// new configuration field is classified before it reaches a sweep.
func TestCheckpointKeySoundness(t *testing.T) {
	const pages = 2
	base := radram.DefaultConfig().WithPageBytes(64 << 10)
	benches := []apps.Benchmark{database.Benchmark{}, array.Benchmark{}}
	baseConv, baseAP := machineOutcomes(t, base, benches)
	keys := func(cfg radram.Config) [2]string {
		return [2]string{run.ConvCheckpointKey("array", pages, cfg), run.APCheckpointKey("array", pages, cfg)}
	}
	baseKeys := keys(base)

	paths, names := leaves(reflect.TypeOf(base), nil, "")
	seen := map[string]bool{}
	for i, idx := range paths {
		name := names[i]
		seen[name] = true
		cfg := base
		perturb(t, name, reflect.ValueOf(&cfg).Elem().FieldByIndex(idx))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: perturbed to an invalid configuration: %v", name, err)
		}
		conv, ap := machineOutcomes(t, cfg, benches)
		changed := [2]bool{!reflect.DeepEqual(conv, baseConv), !reflect.DeepEqual(ap, baseAP)}
		k := keys(cfg)
		want, classified := configKeying[name]
		for m, machine := range []string{"conventional", "Active-Page"} {
			keyChanged := k[m] != baseKeys[m]
			var got keying
			switch {
			case !keyChanged && changed[m]:
				t.Errorf("%s: the %s key leaves it out, but the machine's outcome depends on it",
					name, machine)
				continue
			case !keyChanged:
				got = unkeyed
			case changed[m]:
				got = keyed
			case want[m] == unexercised:
				got = unexercised
			default:
				got = overKeyed
			}
			if got == overKeyed {
				t.Logf("lost sharing: the %s key holds %s, which changes no outcome", machine, name)
			}
			if classified && got != want[m] {
				t.Errorf("%s on the %s machine is %s, configKeying says %s", name, machine, got, want[m])
			}
		}
		if !classified {
			t.Errorf("%s is not classified in configKeying", name)
		}
	}
	for name := range configKeying {
		if !seen[name] {
			t.Errorf("configKeying classifies %s, which radram.Config does not have", name)
		}
	}
}
