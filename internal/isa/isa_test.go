package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		if !op.Valid() {
			continue
		}
		in := Inst{Op: op, A: 3, B: 7, C: 9}
		if op.Info().MMX {
			in.C = 5 // a packed op's C names one of the eight m registers
		}
		switch op.Info().Format {
		case FmtFJ:
			in.A, in.B, in.C = 0, 0, 0
			in.Imm = 100
		case FmtFI:
			in.C = 0
			in.Imm = 100
		}
		w, err := in.Encode()
		if err != nil {
			t.Errorf("%s: encode: %v", op, err)
			continue
		}
		got, err := Decode(w)
		if err != nil {
			t.Errorf("%s: decode: %v", op, err)
			continue
		}
		if got != in {
			t.Errorf("%s: round trip %+v -> %+v", op, in, got)
		}
	}
}

// TestMultimediaRegisterRange: a register field is five bits wide, but
// the core has NumMMXRegs multimedia registers. Encode and Decode both
// refuse register 9 in every multimedia operand and accept it in every
// field of those ops that names a general-purpose register.
func TestMultimediaRegisterRange(t *testing.T) {
	mmxFields := map[Op]string{OpMovqL: "A", OpMovqS: "A", OpMovdGM: "A", OpMovdMG: "B"}
	shift := map[rune]uint{'A': 21, 'B': 16, 'C': 11}
	for op := Op(1); op < opMax; op++ {
		info := op.Info()
		if !info.MMX {
			continue
		}
		refused, ok := mmxFields[op]
		if !ok {
			refused = "ABC" // the packed ops
		}
		base := Inst{Op: op, A: 1, B: 2, C: 3}
		fields := "ABC"
		if info.Format == FmtFI {
			base.C = 0
			fields = "AB"
		}
		w, err := base.Encode()
		if err != nil {
			t.Fatalf("%s: encode %+v: %v", op, base, err)
		}
		for _, f := range fields {
			in := base
			switch f {
			case 'A':
				in.A = 9
			case 'B':
				in.B = 9
			case 'C':
				in.C = 9
			}
			_, encErr := in.Encode()
			_, decErr := Decode(w&^(0x1F<<shift[f]) | 9<<shift[f])
			want := strings.ContainsRune(refused, f)
			if (encErr != nil) != want || (decErr != nil) != want {
				t.Errorf("%s with %c = 9: encode error %v, decode error %v; want refused = %v",
					op, f, encErr, decErr, want)
			}
		}
	}
}

func TestImmediateSignExtension(t *testing.T) {
	for _, imm := range []int32{MinImm, -1, 0, 1, MaxImm} {
		in := Inst{Op: OpAddi, A: 1, B: 2, Imm: imm}
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("imm %d: %v", imm, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		if got.Imm != imm {
			t.Errorf("imm %d decoded as %d", imm, got.Imm)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	if _, err := (Inst{Op: OpAddi, Imm: MaxImm + 1}).Encode(); err == nil {
		t.Error("oversized immediate accepted")
	}
	if _, err := (Inst{Op: OpAddi, Imm: MinImm - 1}).Encode(); err == nil {
		t.Error("undersized immediate accepted")
	}
	if _, err := (Inst{Op: OpJ, Imm: -1}).Encode(); err == nil {
		t.Error("negative jump target accepted")
	}
	if _, err := (Inst{Op: OpAdd, A: 32}).Encode(); err == nil {
		t.Error("register 32 accepted")
	}
	if _, err := (Inst{Op: OpInvalid}).Encode(); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	if _, err := Decode(uint32(opMax) << 26); err == nil {
		t.Error("invalid opcode word decoded")
	}
}

func TestByName(t *testing.T) {
	if ByName("add") != OpAdd {
		t.Error("add not found")
	}
	if ByName("paddsw") != OpPaddsw {
		t.Error("paddsw not found")
	}
	if ByName("bogus") != OpInvalid {
		t.Error("bogus resolved")
	}
}

func TestAllOpsHaveNames(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		if infos[op].Name == "" {
			t.Errorf("opcode %d has no info entry", op)
		}
		if infos[op].Latency < 1 {
			t.Errorf("opcode %s has latency %d", op, infos[op].Latency)
		}
	}
}

func TestOpcodesFitSixBits(t *testing.T) {
	if opMax > 64 {
		t.Fatalf("opMax = %d exceeds the 6-bit opcode field", opMax)
	}
}

func TestRegName(t *testing.T) {
	if RegName(0) != "zero" || RegName(29) != "sp" || RegName(31) != "ra" {
		t.Error("special register names wrong")
	}
	if RegName(5) != "r5" {
		t.Error("plain register name wrong")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, A: 1, B: 2, C: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, A: 1, B: 2, Imm: -5}, "addi r1, r2, -5"},
		{Inst{Op: OpLw, A: 4, B: 29, Imm: 8}, "lw r4, 8(sp)"},
		{Inst{Op: OpJ, Imm: 0x400}, "j 0x1000"},
		{Inst{Op: OpJr, A: 31}, "jr ra"},
		{Inst{Op: OpHalt}, "halt"},
		{Inst{Op: OpPaddsw, A: 1, B: 2, C: 3}, "paddsw m1, m2, m3"},
		{Inst{Op: OpMovqL, A: 2, B: 5, Imm: 16}, "movq.l m2, 16(r5)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains((Inst{Op: opMax}).String(), "invalid") {
		t.Error("invalid instruction should disassemble as <invalid>")
	}
}

// Property: every 32-bit word either fails to decode or re-encodes to a
// word that decodes identically (decode is a partial inverse of encode).
func TestDecodeEncodeStableProperty(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true
		}
		w2, err := in.Encode()
		if err != nil {
			return false
		}
		in2, err := Decode(w2)
		return err == nil && in2 == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
