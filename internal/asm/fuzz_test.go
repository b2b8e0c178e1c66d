package asm

import "testing"

// FuzzAssemble feeds arbitrary source to the assembler, which apasm and
// aprun run on any file they are given. No source may panic it: a bad
// program is an *Error naming its line.
func FuzzAssemble(f *testing.F) {
	for _, seed := range []string{
		"add r1, r2, r3\naddi r4, r5, -42\nlw r6, 8(sp)\nsw r6, 12(r7)\nhalt\n",
		"loop:\n\taddi r1, r1, 1\n\tbne r1, r2, loop\n\thalt\n",
		"\tbeq r1, r2, done\n\taddi r3, r3, 1\ndone:\n\thalt\n",
		"nop\nmove r1, r2\nclear r3\nnot r4, r5\nneg r6, r7\nli r8, 0x12345678\nb target\ntarget:\n\thalt\n",
		".data\ntable: .word 1, 2, 3\n.text\nmain:\n\tla r1, table\n\tlw r2, 0(r1)\n\thalt\n",
		".data\nvals: .word 0x01020304\nhalfs: .half 0x0506\nbytes: .byte 7, 8\nstr: .asciiz \"hi\"\n\t.align 2\naligned: .word 9\n",
		"# full line comment\naddi r1, r1, 1  # trailing comment\nhalt ; semicolon comment\n",
		"movq.l m0, 0(r1)\nmovq.l m1, 8(r1)\npaddsw m2, m0, m1\nmovq.s m2, 16(r1)\nmovd.gm m3, r4\nmovd.mg r5, m3\nhalt\n",
		".org 0x2000\nmain:\n\thalt\n",
		"bgt r1, r2, over\nble r3, r4, under\nover:\nunder:\nhalt\n",
		"main:\n\tli r4, 123\n\tli r2, 1\n\tsyscall\n\thalt\n",
		"frobnicate r1, r2",
		"add r1, r2",
		"addi r1, r2, 99999",
		"lw r1, 8(r99)",
		"beq r1, r2, nowhere",
		"dup:\ndup:\nhalt",
		".bogus 4",
		".ascii notquoted",
		"nop\nnop\nbadop r1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		img, err := Assemble(src)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("error %v is %T, want *Error", err, err)
			}
			return
		}
		if img == nil {
			t.Fatal("nil image without an error")
		}
	})
}
