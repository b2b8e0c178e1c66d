package asm

import (
	"strings"
	"testing"

	"activepages/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Image {
	t.Helper()
	img, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// decodeText decodes the first segment as instructions.
func decodeText(t *testing.T, img *Image) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	seg := img.Segments[0]
	for i := 0; i+4 <= len(seg.Bytes); i += 4 {
		w := uint32(seg.Bytes[i]) | uint32(seg.Bytes[i+1])<<8 |
			uint32(seg.Bytes[i+2])<<16 | uint32(seg.Bytes[i+3])<<24
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("decode word %d: %v", i/4, err)
		}
		out = append(out, in)
	}
	return out
}

func TestBasicInstructions(t *testing.T) {
	img := mustAssemble(t, `
		add r1, r2, r3
		addi r4, r5, -42
		lw r6, 8(sp)
		sw r6, 12(r7)
		halt
	`)
	insts := decodeText(t, img)
	want := []isa.Inst{
		{Op: isa.OpAdd, A: 1, B: 2, C: 3},
		{Op: isa.OpAddi, A: 4, B: 5, Imm: -42},
		{Op: isa.OpLw, A: 6, B: isa.RegSP, Imm: 8},
		{Op: isa.OpSw, A: 6, B: 7, Imm: 12},
		{Op: isa.OpHalt},
	}
	if len(insts) != len(want) {
		t.Fatalf("decoded %d instructions, want %d", len(insts), len(want))
	}
	for i := range want {
		if insts[i] != want[i] {
			t.Errorf("inst %d: %v, want %v", i, insts[i], want[i])
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	img := mustAssemble(t, `
	loop:
		addi r1, r1, 1
		bne r1, r2, loop
		halt
	`)
	insts := decodeText(t, img)
	// bne is at word 1; branching back to word 0 means offset -2 (relative
	// to the instruction after the branch).
	if insts[1].Op != isa.OpBne || insts[1].Imm != -2 {
		t.Fatalf("bne = %+v, want Imm -2", insts[1])
	}
}

func TestForwardBranch(t *testing.T) {
	img := mustAssemble(t, `
		beq r1, r2, done
		addi r3, r3, 1
	done:
		halt
	`)
	insts := decodeText(t, img)
	if insts[0].Imm != 1 {
		t.Fatalf("forward branch offset = %d, want 1", insts[0].Imm)
	}
}

func TestPseudoInstructions(t *testing.T) {
	img := mustAssemble(t, `
		nop
		move r1, r2
		clear r3
		not r4, r5
		neg r6, r7
		li r8, 0x12345678
		b target
	target:
		halt
	`)
	insts := decodeText(t, img)
	if insts[0] != (isa.Inst{Op: isa.OpAddi}) {
		t.Errorf("nop = %v", insts[0])
	}
	if insts[1] != (isa.Inst{Op: isa.OpAddi, A: 1, B: 2}) {
		t.Errorf("move = %v", insts[1])
	}
	if insts[3] != (isa.Inst{Op: isa.OpNor, A: 4, B: 5}) {
		t.Errorf("not = %v", insts[3])
	}
	if insts[4] != (isa.Inst{Op: isa.OpSub, A: 6, C: 7}) {
		t.Errorf("neg = %v", insts[4])
	}
	// li expands to lui+ori.
	if insts[5].Op != isa.OpLui || insts[6].Op != isa.OpOri {
		t.Errorf("li expansion = %v, %v", insts[5], insts[6])
	}
	if uint16(insts[5].Imm) != 0x1234 || uint16(insts[6].Imm) != 0x5678 {
		t.Errorf("li halves = %#x, %#x", insts[5].Imm, insts[6].Imm)
	}
}

func TestLaResolvesDataLabel(t *testing.T) {
	img := mustAssemble(t, `
		.data
	table: .word 1, 2, 3
		.text
	main:
		la r1, table
		lw r2, 0(r1)
		halt
	`)
	addr, ok := img.SymbolAddr("table")
	if !ok {
		t.Fatal("table symbol missing")
	}
	if addr != DefaultDataBase {
		t.Fatalf("table at %#x, want %#x", addr, DefaultDataBase)
	}
	var text *Segment
	for i := range img.Segments {
		if img.Segments[i].Addr == DefaultTextBase {
			text = &img.Segments[i]
		}
	}
	if text == nil {
		t.Fatal("no text segment")
	}
}

func TestDataDirectives(t *testing.T) {
	img := mustAssemble(t, `
		.data
	vals: .word 0x01020304
	halfs: .half 0x0506
	bytes: .byte 7, 8
	str: .asciiz "hi"
		.align 2
	aligned: .word 9
	`)
	var data *Segment
	for i := range img.Segments {
		if img.Segments[i].Addr == DefaultDataBase {
			data = &img.Segments[i]
		}
	}
	if data == nil {
		t.Fatal("no data segment")
	}
	b := data.Bytes
	if b[0] != 4 || b[1] != 3 || b[2] != 2 || b[3] != 1 {
		t.Errorf("little-endian .word wrong: % x", b[:4])
	}
	if b[4] != 6 || b[5] != 5 {
		t.Errorf(".half wrong: % x", b[4:6])
	}
	if b[6] != 7 || b[7] != 8 {
		t.Errorf(".byte wrong: % x", b[6:8])
	}
	if string(b[8:11]) != "hi\x00" {
		t.Errorf(".asciiz wrong: %q", b[8:11])
	}
	alignedAddr, _ := img.SymbolAddr("aligned")
	if alignedAddr%4 != 0 {
		t.Errorf("aligned label at %#x", alignedAddr)
	}
}

func TestEntryPointDefaultsAndMain(t *testing.T) {
	img := mustAssemble(t, "addi r1, r1, 1\nhalt\n")
	if img.Entry != DefaultTextBase {
		t.Errorf("entry = %#x, want text base", img.Entry)
	}
	img2 := mustAssemble(t, `
		nop
	main:
		halt
	`)
	if img2.Entry != DefaultTextBase+4 {
		t.Errorf("entry = %#x, want main at %#x", img2.Entry, DefaultTextBase+4)
	}
}

func TestComments(t *testing.T) {
	img := mustAssemble(t, `
		# full line comment
		addi r1, r1, 1  # trailing comment
		halt ; semicolon comment
	`)
	if len(decodeText(t, img)) != 2 {
		t.Fatal("comments not stripped")
	}
}

func TestMMXSyntax(t *testing.T) {
	img := mustAssemble(t, `
		movq.l m0, 0(r1)
		movq.l m1, 8(r1)
		paddsw m2, m0, m1
		movq.s m2, 16(r1)
		movd.gm m3, r4
		movd.mg r5, m3
		halt
	`)
	insts := decodeText(t, img)
	if insts[2] != (isa.Inst{Op: isa.OpPaddsw, A: 2, B: 0, C: 1}) {
		t.Errorf("paddsw = %v", insts[2])
	}
	if insts[4] != (isa.Inst{Op: isa.OpMovdGM, A: 3, B: 4}) {
		t.Errorf("movd.gm = %v", insts[4])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"frobnicate r1, r2", "unknown instruction"},
		{"add r1, r2", "want 3 operands"},
		{"addi r1, r2, 99999", "out of range"},
		{"lw r1, 8(r99)", "bad register"},
		{"beq r1, r2, nowhere", "undefined symbol"},
		{"dup:\ndup:\nhalt", "redefined"},
		{".bogus 4", "unknown directive"},
		{".ascii notquoted", "bad string"},
		{".space 0x7fffffffffffffff", "image exceeds"},
		{".data\n.space 0x800000\n.space 0x800000\n.byte 1", "image exceeds"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%q assembled without error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("nop\nnop\nbadop r1\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var ae *Error
	if !errorAs(err, &ae) || ae.Line != 3 {
		t.Fatalf("error = %v, want line 3", err)
	}
}

func errorAs(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestOrgDirective(t *testing.T) {
	img := mustAssemble(t, `
		.org 0x2000
	main:
		halt
	`)
	if img.Entry != 0x2000 {
		t.Fatalf("entry = %#x, want 0x2000", img.Entry)
	}
}

func TestBgtBlePseudos(t *testing.T) {
	img := mustAssemble(t, `
		bgt r1, r2, over
		ble r3, r4, under
	over:
	under:
		halt
	`)
	insts := decodeText(t, img)
	// bgt r1, r2 => blt r2, r1; ble r3, r4 => bge r4, r3.
	if insts[0] != (isa.Inst{Op: isa.OpBlt, A: 2, B: 1, Imm: 1}) {
		t.Fatalf("bgt = %v", insts[0])
	}
	if insts[1] != (isa.Inst{Op: isa.OpBge, A: 4, B: 3, Imm: 0}) {
		t.Fatalf("ble = %v", insts[1])
	}
}
