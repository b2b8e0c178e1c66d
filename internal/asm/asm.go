// Package asm is a two-pass assembler for the simulator's MSS instruction
// set (package isa). It supports labels, the usual data directives, and a
// small set of pseudo-instructions (li, la, move, b, nop) that expand to
// real instructions, mirroring classic MIPS assembler conventions.
//
// Source syntax, one statement per line:
//
//	.text / .data            switch sections
//	.org ADDR                set the location counter
//	.align N                 align to 2^N bytes
//	.word V, V ...           32-bit values or label references
//	.half V ...              16-bit values
//	.byte V ...              8-bit values
//	.space N                 N zero bytes
//	.ascii "s" / .asciiz "s" string data (asciiz adds a NUL)
//	label:                   define a label at the location counter
//	op operands              an instruction, e.g. `add r1, r2, r3`,
//	                         `lw r1, 8(sp)`, `beq r1, zero, done`
//
// Comments start with '#' or ';' and run to end of line.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"activepages/internal/isa"
)

// DefaultTextBase and DefaultDataBase are the section origins when no .org
// is given.
const (
	DefaultTextBase = 0x0000_1000
	DefaultDataBase = 0x0010_0000
)

// maxImageBytes bounds the bytes one source may lay out, so a typo such as
// `.space 0x7fffffffffffffff` is an error rather than a panic or a
// multi-gigabyte allocation.
const maxImageBytes = 16 << 20

// Segment is a contiguous span of assembled bytes.
type Segment struct {
	Addr  uint64
	Bytes []byte
}

// Image is the result of assembly: loadable segments, the entry point, and
// the symbol table.
type Image struct {
	Segments []Segment
	Entry    uint64
	Symbols  map[string]uint64
}

// SymbolAddr looks up a label, for tests and tools.
func (im *Image) SymbolAddr(name string) (uint64, bool) {
	a, ok := im.Symbols[name]
	return a, ok
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble assembles source into an image. The entry point is the label
// `main` if defined, else the start of .text.
func Assemble(source string) (*Image, error) {
	a := &assembler{symbols: make(map[string]uint64)}
	// Pass 1: lay out statements and define symbols.
	if err := a.scan(source); err != nil {
		return nil, err
	}
	// Pass 2: encode with symbols resolved.
	if err := a.emit(); err != nil {
		return nil, err
	}
	img := &Image{Symbols: a.symbols}
	for _, sec := range a.sections {
		if len(sec.buf) > 0 {
			img.Segments = append(img.Segments, Segment{Addr: sec.base, Bytes: sec.buf})
		}
	}
	img.Entry = a.textBase
	if m, ok := a.symbols["main"]; ok {
		img.Entry = m
	}
	return img, nil
}

type section struct {
	base uint64
	pc   uint64 // next address
	buf  []byte
}

func (s *section) writeAt(addr uint64, b []byte) {
	off := addr - s.base
	need := off + uint64(len(b))
	for uint64(len(s.buf)) < need {
		s.buf = append(s.buf, 0)
	}
	copy(s.buf[off:], b)
}

type stmtKind int

const (
	stInst stmtKind = iota
	stData
)

// stmt is one layout unit produced by pass 1.
type stmt struct {
	kind    stmtKind
	line    int
	addr    uint64
	section *section
	size    uint64

	// For stInst: the mnemonic and raw operand strings.
	op       string
	operands []string

	// For stData: directive name and raw operands.
	directive string
}

type assembler struct {
	sections []*section
	cur      *section
	text     *section
	data     *section
	textBase uint64
	symbols  map[string]uint64
	stmts    []stmt
	bytes    uint64 // laid out so far, bounded by maxImageBytes
}

func (a *assembler) section(base uint64) *section {
	s := &section{base: base, pc: base}
	a.sections = append(a.sections, s)
	return s
}

// instSize returns the number of encoded words a mnemonic expands to.
func instSize(op string, operands []string) (uint64, error) {
	switch op {
	case "li":
		// Worst case lui+ori; pass 1 must be conservative but stable, so
		// li is always two instructions (a small imm emits lui 0 + ori).
		return 8, nil
	case "la":
		return 8, nil
	case "nop", "move", "b", "not", "neg", "clear", "bgt", "ble":
		return 4, nil
	default:
		if isa.ByName(op) == isa.OpInvalid {
			return 0, fmt.Errorf("unknown instruction %q", op)
		}
		return 4, nil
	}
}

func (a *assembler) scan(source string) error {
	a.text = a.section(DefaultTextBase)
	a.data = a.section(DefaultDataBase)
	a.textBase = DefaultTextBase
	a.cur = a.text

	for lineNo, raw := range strings.Split(source, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		n := lineNo + 1

		// Labels (possibly several on one line).
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			label := strings.TrimSpace(line[:idx])
			if !isIdent(label) {
				break
			}
			if _, dup := a.symbols[label]; dup {
				return &Error{n, fmt.Sprintf("label %q redefined", label)}
			}
			a.symbols[label] = a.cur.pc
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}

		cur, pc := a.cur, a.cur.pc
		if err := a.scanStmt(n, line); err != nil {
			return err
		}
		// A line either lays out bytes in the current section or switches
		// sections; only the former grows the image.
		if a.cur == cur {
			if a.bytes += a.cur.pc - pc; a.bytes > maxImageBytes {
				return &Error{n, fmt.Sprintf("image exceeds %d bytes", maxImageBytes)}
			}
		}
	}
	return nil
}

// scanStmt lays out one directive or instruction.
func (a *assembler) scanStmt(n int, line string) error {
	if strings.HasPrefix(line, ".") {
		return a.scanDirective(n, line)
	}
	op, operands := splitInst(line)
	size, err := instSize(op, operands)
	if err != nil {
		return &Error{n, err.Error()}
	}
	if a.cur.pc%4 != 0 {
		return &Error{n, fmt.Sprintf("instruction at unaligned address %#x", a.cur.pc)}
	}
	a.stmts = append(a.stmts, stmt{
		kind: stInst, line: n, addr: a.cur.pc, section: a.cur,
		size: size, op: op, operands: operands,
	})
	a.cur.pc += size
	return nil
}

func (a *assembler) scanDirective(n int, line string) error {
	fields := strings.SplitN(line, " ", 2)
	dir := fields[0]
	rest := ""
	if len(fields) > 1 {
		rest = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".text":
		a.cur = a.text
	case ".data":
		a.cur = a.data
	case ".org":
		v, err := parseInt(rest)
		if err != nil {
			return &Error{n, fmt.Sprintf(".org: %v", err)}
		}
		// .org starts a fresh section at the given address.
		a.cur = a.section(uint64(v))
		if a.cur.base < DefaultDataBase && a.cur.base >= DefaultTextBase {
			a.text = a.cur
		}
	case ".align":
		v, err := parseInt(rest)
		if err != nil || v < 0 || v > 20 {
			return &Error{n, fmt.Sprintf(".align: bad exponent %q", rest)}
		}
		mask := uint64(1)<<uint(v) - 1
		pad := (mask + 1 - (a.cur.pc & mask)) & mask
		if pad > 0 {
			a.stmts = append(a.stmts, stmt{
				kind: stData, line: n, addr: a.cur.pc, section: a.cur,
				size: pad, directive: ".space", operands: []string{strconv.FormatUint(pad, 10)},
			})
			a.cur.pc += pad
		}
	case ".space":
		v, err := parseInt(rest)
		if err != nil || v < 0 {
			return &Error{n, fmt.Sprintf(".space: bad size %q", rest)}
		}
		a.stmts = append(a.stmts, stmt{
			kind: stData, line: n, addr: a.cur.pc, section: a.cur,
			size: uint64(v), directive: ".space", operands: []string{rest},
		})
		a.cur.pc += uint64(v)
	case ".word", ".half", ".byte":
		ops := splitOperands(rest)
		var unit uint64
		switch dir {
		case ".word":
			unit = 4
		case ".half":
			unit = 2
		default:
			unit = 1
		}
		size := unit * uint64(len(ops))
		a.stmts = append(a.stmts, stmt{
			kind: stData, line: n, addr: a.cur.pc, section: a.cur,
			size: size, directive: dir, operands: ops,
		})
		a.cur.pc += size
	case ".ascii", ".asciiz":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return &Error{n, fmt.Sprintf("%s: bad string %q", dir, rest)}
		}
		size := uint64(len(s))
		if dir == ".asciiz" {
			size++
		}
		a.stmts = append(a.stmts, stmt{
			kind: stData, line: n, addr: a.cur.pc, section: a.cur,
			size: size, directive: dir, operands: []string{rest},
		})
		a.cur.pc += size
	default:
		return &Error{n, fmt.Sprintf("unknown directive %s", dir)}
	}
	return nil
}

func (a *assembler) emit() error {
	for _, st := range a.stmts {
		var err error
		switch st.kind {
		case stData:
			err = a.emitData(st)
		case stInst:
			err = a.emitInst(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) emitData(st stmt) error {
	switch st.directive {
	case ".space":
		st.section.writeAt(st.addr, make([]byte, st.size))
	case ".ascii", ".asciiz":
		s, err := strconv.Unquote(st.operands[0])
		if err != nil {
			return &Error{st.line, err.Error()}
		}
		b := []byte(s)
		if st.directive == ".asciiz" {
			b = append(b, 0)
		}
		st.section.writeAt(st.addr, b)
	case ".word", ".half", ".byte":
		var unit uint64
		switch st.directive {
		case ".word":
			unit = 4
		case ".half":
			unit = 2
		default:
			unit = 1
		}
		addr := st.addr
		for _, opnd := range st.operands {
			v, err := a.value(opnd)
			if err != nil {
				return &Error{st.line, err.Error()}
			}
			b := make([]byte, unit)
			for i := range b {
				b[i] = byte(v >> (8 * uint(i)))
			}
			st.section.writeAt(addr, b)
			addr += unit
		}
	}
	return nil
}

// value resolves an integer literal or label reference.
func (a *assembler) value(s string) (int64, error) {
	if v, err := parseInt(s); err == nil {
		return v, nil
	}
	if addr, ok := a.symbols[s]; ok {
		return int64(addr), nil
	}
	return 0, fmt.Errorf("undefined symbol or bad literal %q", s)
}

func (a *assembler) emitInst(st stmt) error {
	insts, err := a.expand(st)
	if err != nil {
		return err
	}
	if uint64(len(insts))*4 != st.size {
		return &Error{st.line, fmt.Sprintf("internal: %s expanded to %d instructions, reserved %d",
			st.op, len(insts), st.size/4)}
	}
	addr := st.addr
	for _, in := range insts {
		w, err := in.Encode()
		if err != nil {
			return &Error{st.line, err.Error()}
		}
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		st.section.writeAt(addr, b[:])
		addr += 4
	}
	return nil
}
