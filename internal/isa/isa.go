// Package isa defines the simulator's RISC instruction set, a compact
// SimpleScalar-inspired ISA ("MSS": mini-SimpleScalar). The paper's
// methodology extends SimpleScalar v2.0 — a MIPS-R3000-flavoured RISC —
// with Intel MMX multimedia opcodes; MSS does the same: a classic
// three-register RISC core plus 64-bit packed MMX operations over a
// separate eight-register multimedia file.
//
// Instructions are 32 bits, little-endian, in three formats:
//
//	F3: op(6) | a(5) | b(5) | c(5) | pad(11)    three-register ops
//	FI: op(6) | a(5) | b(5) | imm(16, signed)   immediate / load-store / branch
//	FJ: op(6) | target(26)                      jumps (word-addressed)
//
// Register r0 reads as zero and ignores writes. MMX registers m0..m7 are
// 64 bits wide.
package isa

import "fmt"

// NumRegs is the number of general-purpose registers.
const NumRegs = 32

// NumMMXRegs is the number of 64-bit multimedia registers.
const NumMMXRegs = 8

// Conventional register aliases (MIPS-flavoured).
const (
	RegZero = 0
	RegRV   = 2 // return value / syscall code
	RegArg0 = 4 // first argument
	RegArg1 = 5
	RegArg2 = 6
	RegArg3 = 7
	RegSP   = 29
	RegRA   = 31
)

// Op is an opcode. Opcodes occupy six bits; there are at most 64.
type Op uint8

// Opcodes. The groups mirror SimpleScalar's integer core plus the MMX
// extension described in Section 4 of the paper.
const (
	OpInvalid Op = iota

	// Three-register ALU (F3: a = b OP c).
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpNor
	OpSlt  // set if signed less-than
	OpSltu // set if unsigned less-than
	OpSllv // shift left by register
	OpSrlv
	OpSrav
	OpMul
	OpMulh // high 32 bits of signed 64-bit product
	OpDiv
	OpRem

	// Immediate ALU (FI: a = b OP imm).
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlti
	OpSltiu
	OpSlli
	OpSrli
	OpSrai
	OpLui // a = imm << 16 (fills the bits Ori cannot reach)

	// Loads and stores (FI: a = mem[b+imm] / mem[b+imm] = a).
	OpLb
	OpLbu
	OpLh
	OpLhu
	OpLw
	OpSb
	OpSh
	OpSw

	// Branches (FI: compare a with b, PC-relative word offset imm) and
	// jumps.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJ    // FJ: absolute word target
	OpJal  // FJ: link in r31
	OpJr   // F3: jump to register a
	OpJalr // F3: a = link, jump to b

	// System.
	OpSyscall // service selected by r2
	OpHalt

	// MMX extension (F3 over MMX registers unless noted).
	OpMovqL   // FI: m[a] = mem64[b+imm]
	OpMovqS   // FI: mem64[b+imm] = m[a]
	OpMovdGM  // F3: m[a].low32 = r[b], high cleared
	OpMovdMG  // F3: r[a] = m[b].low32
	OpPaddb   // packed add, 8 x 8-bit wrapping
	OpPaddw   // packed add, 4 x 16-bit wrapping
	OpPaddsw  // packed add, 4 x 16-bit signed saturating
	OpPaddusb // packed add, 8 x 8-bit unsigned saturating
	OpPsubb
	OpPsubw
	OpPsubsw
	OpPmullw // packed multiply, low 16 bits of each product
	OpPand
	OpPor
	OpPxor

	opMax
)

// Opcodes must fit the 6-bit field.
var _ = [1]struct{}{}[opMax>>6]

// Format describes an opcode's encoding.
type Format int

const (
	// FmtF3 is the three-register format.
	FmtF3 Format = iota
	// FmtFI is the two-register + 16-bit immediate format.
	FmtFI
	// FmtFJ is the 26-bit jump-target format.
	FmtFJ
)

// Info describes one opcode.
type Info struct {
	Name   string
	Format Format
	// Latency is the issue-to-complete cycle count in the in-order core,
	// excluding memory-hierarchy time.
	Latency int
	// Mem marks loads/stores; MMX marks multimedia-register operands.
	Load, Store, MMX bool
}

var infos = [opMax]Info{
	OpAdd:   {Name: "add", Format: FmtF3, Latency: 1},
	OpSub:   {Name: "sub", Format: FmtF3, Latency: 1},
	OpAnd:   {Name: "and", Format: FmtF3, Latency: 1},
	OpOr:    {Name: "or", Format: FmtF3, Latency: 1},
	OpXor:   {Name: "xor", Format: FmtF3, Latency: 1},
	OpNor:   {Name: "nor", Format: FmtF3, Latency: 1},
	OpSlt:   {Name: "slt", Format: FmtF3, Latency: 1},
	OpSltu:  {Name: "sltu", Format: FmtF3, Latency: 1},
	OpSllv:  {Name: "sllv", Format: FmtF3, Latency: 1},
	OpSrlv:  {Name: "srlv", Format: FmtF3, Latency: 1},
	OpSrav:  {Name: "srav", Format: FmtF3, Latency: 1},
	OpMul:   {Name: "mul", Format: FmtF3, Latency: 3},
	OpMulh:  {Name: "mulh", Format: FmtF3, Latency: 3},
	OpDiv:   {Name: "div", Format: FmtF3, Latency: 12},
	OpRem:   {Name: "rem", Format: FmtF3, Latency: 12},
	OpAddi:  {Name: "addi", Format: FmtFI, Latency: 1},
	OpAndi:  {Name: "andi", Format: FmtFI, Latency: 1},
	OpOri:   {Name: "ori", Format: FmtFI, Latency: 1},
	OpXori:  {Name: "xori", Format: FmtFI, Latency: 1},
	OpSlti:  {Name: "slti", Format: FmtFI, Latency: 1},
	OpSltiu: {Name: "sltiu", Format: FmtFI, Latency: 1},
	OpSlli:  {Name: "slli", Format: FmtFI, Latency: 1},
	OpSrli:  {Name: "srli", Format: FmtFI, Latency: 1},
	OpSrai:  {Name: "srai", Format: FmtFI, Latency: 1},
	OpLui:   {Name: "lui", Format: FmtFI, Latency: 1},
	OpLb:    {Name: "lb", Format: FmtFI, Latency: 1, Load: true},
	OpLbu:   {Name: "lbu", Format: FmtFI, Latency: 1, Load: true},
	OpLh:    {Name: "lh", Format: FmtFI, Latency: 1, Load: true},
	OpLhu:   {Name: "lhu", Format: FmtFI, Latency: 1, Load: true},
	OpLw:    {Name: "lw", Format: FmtFI, Latency: 1, Load: true},
	OpSb:    {Name: "sb", Format: FmtFI, Latency: 1, Store: true},
	OpSh:    {Name: "sh", Format: FmtFI, Latency: 1, Store: true},
	OpSw:    {Name: "sw", Format: FmtFI, Latency: 1, Store: true},
	OpBeq:   {Name: "beq", Format: FmtFI, Latency: 1},
	OpBne:   {Name: "bne", Format: FmtFI, Latency: 1},
	OpBlt:   {Name: "blt", Format: FmtFI, Latency: 1},
	OpBge:   {Name: "bge", Format: FmtFI, Latency: 1},
	OpBltu:  {Name: "bltu", Format: FmtFI, Latency: 1},
	OpBgeu:  {Name: "bgeu", Format: FmtFI, Latency: 1},
	OpJ:     {Name: "j", Format: FmtFJ, Latency: 1},
	OpJal:   {Name: "jal", Format: FmtFJ, Latency: 1},
	OpJr:    {Name: "jr", Format: FmtF3, Latency: 1},
	OpJalr:  {Name: "jalr", Format: FmtF3, Latency: 1},

	OpSyscall: {Name: "syscall", Format: FmtF3, Latency: 1},
	OpHalt:    {Name: "halt", Format: FmtF3, Latency: 1},

	OpMovqL:   {Name: "movq.l", Format: FmtFI, Latency: 1, Load: true, MMX: true},
	OpMovqS:   {Name: "movq.s", Format: FmtFI, Latency: 1, Store: true, MMX: true},
	OpMovdGM:  {Name: "movd.gm", Format: FmtF3, Latency: 1, MMX: true},
	OpMovdMG:  {Name: "movd.mg", Format: FmtF3, Latency: 1, MMX: true},
	OpPaddb:   {Name: "paddb", Format: FmtF3, Latency: 1, MMX: true},
	OpPaddw:   {Name: "paddw", Format: FmtF3, Latency: 1, MMX: true},
	OpPaddsw:  {Name: "paddsw", Format: FmtF3, Latency: 1, MMX: true},
	OpPaddusb: {Name: "paddusb", Format: FmtF3, Latency: 1, MMX: true},
	OpPsubb:   {Name: "psubb", Format: FmtF3, Latency: 1, MMX: true},
	OpPsubw:   {Name: "psubw", Format: FmtF3, Latency: 1, MMX: true},
	OpPsubsw:  {Name: "psubsw", Format: FmtF3, Latency: 1, MMX: true},
	OpPmullw:  {Name: "pmullw", Format: FmtF3, Latency: 3, MMX: true},
	OpPand:    {Name: "pand", Format: FmtF3, Latency: 1, MMX: true},
	OpPor:     {Name: "por", Format: FmtF3, Latency: 1, MMX: true},
	OpPxor:    {Name: "pxor", Format: FmtF3, Latency: 1, MMX: true},
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool {
	return op > OpInvalid && op < opMax && infos[op].Name != ""
}

// Info returns the opcode's descriptor. It panics for invalid opcodes.
func (op Op) Info() Info {
	if !op.Valid() {
		panic(fmt.Sprintf("isa: invalid opcode %d", op))
	}
	return infos[op]
}

// String returns the mnemonic.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return infos[op].Name
}

// ByName resolves a mnemonic to its opcode, or OpInvalid.
func ByName(name string) Op {
	for op := Op(1); op < opMax; op++ {
		if infos[op].Name == name {
			return op
		}
	}
	return OpInvalid
}

// Inst is a decoded instruction.
type Inst struct {
	Op Op
	// A, B, C are register fields (GPR or MMX index depending on the op).
	A, B, C uint8
	// Imm is the sign-extended 16-bit immediate (FI) or the 26-bit jump
	// target in words (FJ, zero-extended).
	Imm int32
}

// Immediate field limits.
const (
	MaxImm = 1<<15 - 1  // 32767
	MinImm = -(1 << 15) // -32768
	MaxJmp = 1<<26 - 1
)

// Encode packs the instruction into its 32-bit binary form.
func (i Inst) Encode() (uint32, error) {
	if !i.Op.Valid() {
		return 0, fmt.Errorf("isa: encode: invalid opcode %d", i.Op)
	}
	if i.A >= NumRegs || i.B >= NumRegs || i.C >= NumRegs {
		return 0, fmt.Errorf("isa: encode %s: register out of range", i.Op)
	}
	if !i.mmxInRange() {
		return 0, fmt.Errorf("isa: encode %s: multimedia register out of range", i.Op)
	}
	w := uint32(i.Op) << 26
	switch i.Op.Info().Format {
	case FmtF3:
		w |= uint32(i.A)<<21 | uint32(i.B)<<16 | uint32(i.C)<<11
	case FmtFI:
		if i.Imm < MinImm || i.Imm > MaxImm {
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of 16-bit range", i.Op, i.Imm)
		}
		w |= uint32(i.A)<<21 | uint32(i.B)<<16 | (uint32(i.Imm) & 0xFFFF)
	case FmtFJ:
		if i.Imm < 0 || i.Imm > MaxJmp {
			return 0, fmt.Errorf("isa: encode %s: target %d out of 26-bit range", i.Op, i.Imm)
		}
		w |= uint32(i.Imm) & 0x3FFFFFF
	}
	return w, nil
}

// Decode unpacks a 32-bit word into an instruction.
func Decode(w uint32) (Inst, error) {
	op := Op(w >> 26)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: decode: invalid opcode %d in %#08x", uint8(op), w)
	}
	i := Inst{Op: op}
	switch op.Info().Format {
	case FmtF3:
		i.A = uint8(w >> 21 & 0x1F)
		i.B = uint8(w >> 16 & 0x1F)
		i.C = uint8(w >> 11 & 0x1F)
	case FmtFI:
		i.A = uint8(w >> 21 & 0x1F)
		i.B = uint8(w >> 16 & 0x1F)
		i.Imm = int32(int16(w & 0xFFFF))
	case FmtFJ:
		i.Imm = int32(w & 0x3FFFFFF)
	}
	if !i.mmxInRange() {
		return Inst{}, fmt.Errorf("isa: decode: %s multimedia register out of range in %#08x", op, w)
	}
	return i, nil
}

// mmxInRange reports whether every multimedia-register operand of a valid
// instruction names one of the NumMMXRegs registers. A register field is
// five bits wide, so it can name m8..m31, which the core does not have.
// The multimedia operands are A, B and C of the packed ops, A of movq.l,
// movq.s and movd.gm, and B of movd.mg; the other fields of those ops name
// general-purpose registers.
func (i Inst) mmxInRange() bool {
	switch {
	case i.Op == OpMovqL || i.Op == OpMovqS || i.Op == OpMovdGM:
		return i.A < NumMMXRegs
	case i.Op == OpMovdMG:
		return i.B < NumMMXRegs
	case infos[i.Op].MMX:
		return i.A < NumMMXRegs && i.B < NumMMXRegs && i.C < NumMMXRegs
	}
	return true
}

// RegName returns the conventional name for a GPR index.
func RegName(r uint8) string {
	switch r {
	case RegZero:
		return "zero"
	case RegSP:
		return "sp"
	case RegRA:
		return "ra"
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// String disassembles the instruction.
func (i Inst) String() string {
	if !i.Op.Valid() {
		return "<invalid>"
	}
	info := i.Op.Info()
	reg := RegName
	if info.MMX {
		reg = func(r uint8) string { return fmt.Sprintf("m%d", r) }
	}
	switch i.Op {
	case OpHalt, OpSyscall:
		return info.Name
	case OpJ, OpJal:
		return fmt.Sprintf("%s %#x", info.Name, uint32(i.Imm)*4)
	case OpJr:
		return fmt.Sprintf("jr %s", RegName(i.A))
	case OpJalr:
		return fmt.Sprintf("jalr %s, %s", RegName(i.A), RegName(i.B))
	case OpMovqL, OpMovqS:
		return fmt.Sprintf("%s m%d, %d(%s)", info.Name, i.A, i.Imm, RegName(i.B))
	case OpMovdGM:
		return fmt.Sprintf("movd.gm m%d, %s", i.A, RegName(i.B))
	case OpMovdMG:
		return fmt.Sprintf("movd.mg %s, m%d", RegName(i.A), i.B)
	case OpLui:
		return fmt.Sprintf("lui %s, %d", RegName(i.A), i.Imm)
	}
	switch info.Format {
	case FmtF3:
		return fmt.Sprintf("%s %s, %s, %s", info.Name, reg(i.A), reg(i.B), reg(i.C))
	case FmtFI:
		if info.Load || info.Store {
			return fmt.Sprintf("%s %s, %d(%s)", info.Name, reg(i.A), i.Imm, RegName(i.B))
		}
		return fmt.Sprintf("%s %s, %s, %d", info.Name, reg(i.A), reg(i.B), i.Imm)
	default:
		return fmt.Sprintf("%s %#x", info.Name, i.Imm)
	}
}

// Syscall service numbers (selected by r2 at a syscall instruction).
const (
	SysPrintInt  = 1 // print r4 as a signed integer
	SysPrintChar = 2 // print r4's low byte
	SysBrk       = 3 // no-op in the simulator (heap is flat)
)
