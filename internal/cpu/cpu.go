// Package cpu implements the simulator's in-order execution core for the
// MSS instruction set (package isa), standing in for the SimpleScalar
// processor model of the paper's methodology.
//
// The core executes one instruction at a time: instruction fetch goes
// through the L1 I-cache, data accesses through the L1 D-cache, and each
// opcode charges its issue latency at the core clock (Table 1 reference:
// 1 GHz). Taken branches pay a one-cycle redirect penalty. The core keeps
// separate accounts of compute time and memory-stall time, the split that
// drives the paper's sensitivity analyses.
package cpu

import (
	"bytes"
	"fmt"
	"io"

	"activepages/internal/asm"
	"activepages/internal/isa"
	"activepages/internal/mem"
	"activepages/internal/memsys"
	"activepages/internal/sim"
)

// Config describes the core.
type Config struct {
	// ClockHz is the core frequency (paper reference: 1 GHz).
	ClockHz uint64
	// TakenBranchPenalty is the extra cycles charged for a taken branch or
	// jump under the static front end (redirect bubble).
	TakenBranchPenalty uint64
	// Bimodal enables the 2-bit-counter branch predictor; only
	// conditional-branch mispredictions then pay MispredictPenalty.
	Bimodal bool
	// BimodalEntries sizes the counter table (default 2048).
	BimodalEntries int
	// MispredictPenalty is the pipeline-flush cost in cycles under the
	// bimodal predictor (default 4).
	MispredictPenalty uint64
}

// DefaultConfig returns the Table 1 reference core.
func DefaultConfig() Config {
	return Config{ClockHz: 1_000_000_000, TakenBranchPenalty: 1}
}

// BimodalConfig returns the reference core with the bimodal predictor.
func BimodalConfig() Config {
	return Config{
		ClockHz:            1_000_000_000,
		TakenBranchPenalty: 1,
		Bimodal:            true,
		BimodalEntries:     2048,
		MispredictPenalty:  4,
	}
}

// Stats accumulates execution statistics.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	TakenBranch  uint64
	Mispredicts  uint64
	MMXOps       uint64
	Syscalls     uint64
	// ComputeTime is time spent issuing instructions (opcode latencies and
	// branch penalties); MemTime is time spent in the memory hierarchy
	// (fetches beyond the pipelined hit path plus data accesses).
	ComputeTime sim.Duration
	MemTime     sim.Duration
}

// Core is the processor.
type Core struct {
	cfg   Config
	clock sim.Clock
	hier  *memsys.Hierarchy
	store *mem.Store

	pc     uint32
	regs   [isa.NumRegs]uint32
	mmx    [isa.NumMMXRegs]uint64
	halted bool
	now    sim.Time
	pred   predictor

	// Output collects syscall output (print services).
	Output bytes.Buffer
	// Trace, when set, receives one line per retired instruction
	// ("pc: disassembly"), the classic simulator debugging aid.
	Trace io.Writer
	Stats Stats
}

// New builds a core over the given hierarchy and backing store.
func New(cfg Config, h *memsys.Hierarchy, store *mem.Store) *Core {
	if cfg.ClockHz == 0 {
		cfg = DefaultConfig()
	}
	c := &Core{cfg: cfg, clock: sim.NewClock(cfg.ClockHz), hier: h, store: store}
	if cfg.Bimodal {
		entries := cfg.BimodalEntries
		if entries <= 0 {
			entries = 2048
		}
		c.pred = newBimodal(entries)
	} else {
		c.pred = staticPredictor{}
	}
	return c
}

// Load maps an assembled image into memory and points the PC at its entry.
func (c *Core) Load(img *asm.Image) {
	for _, seg := range img.Segments {
		c.store.Write(seg.Addr, seg.Bytes)
	}
	c.pc = uint32(img.Entry)
	c.regs[isa.RegSP] = 0x00F0_0000 // top of a 1 MB stack region below data
	c.halted = false
}

// Now returns the core's current simulated time.
func (c *Core) Now() sim.Time { return c.now }

// Reg returns a GPR value (r0 reads as zero).
func (c *Core) Reg(r uint8) uint32 {
	if r == isa.RegZero {
		return 0
	}
	return c.regs[r]
}

// SetReg writes a GPR (writes to r0 are discarded).
func (c *Core) SetReg(r uint8, v uint32) {
	if r != isa.RegZero {
		c.regs[r] = v
	}
}

// Step executes one instruction. It returns an error for invalid opcodes or
// execution after halt.
func (c *Core) Step() error {
	if c.halted {
		return fmt.Errorf("cpu: step after halt at pc %#x", c.pc)
	}
	fetchTime := c.hier.Access(uint64(c.pc), 4, memsys.Fetch)
	// The pipelined front end hides the L1 hit; only miss time stalls.
	if fetchTime > c.hier.L1HitTime() {
		c.now += fetchTime - c.hier.L1HitTime()
		c.Stats.MemTime += fetchTime - c.hier.L1HitTime()
	}
	word := c.store.ReadU32(uint64(c.pc))
	in, err := isa.Decode(word)
	if err != nil {
		return fmt.Errorf("cpu: pc %#x: %w", c.pc, err)
	}
	c.Stats.Instructions++
	if c.Trace != nil {
		fmt.Fprintf(c.Trace, "%#010x: %s\n", c.pc, in)
	}
	issue := c.clock.Cycles(uint64(in.Op.Info().Latency))
	c.now += issue
	c.Stats.ComputeTime += issue

	nextPC := c.pc + 4
	taken := false

	switch in.Op {
	case isa.OpAdd:
		c.SetReg(in.A, c.Reg(in.B)+c.Reg(in.C))
	case isa.OpSub:
		c.SetReg(in.A, c.Reg(in.B)-c.Reg(in.C))
	case isa.OpAnd:
		c.SetReg(in.A, c.Reg(in.B)&c.Reg(in.C))
	case isa.OpOr:
		c.SetReg(in.A, c.Reg(in.B)|c.Reg(in.C))
	case isa.OpXor:
		c.SetReg(in.A, c.Reg(in.B)^c.Reg(in.C))
	case isa.OpNor:
		c.SetReg(in.A, ^(c.Reg(in.B) | c.Reg(in.C)))
	case isa.OpSlt:
		c.SetReg(in.A, boolTo32(int32(c.Reg(in.B)) < int32(c.Reg(in.C))))
	case isa.OpSltu:
		c.SetReg(in.A, boolTo32(c.Reg(in.B) < c.Reg(in.C)))
	case isa.OpSllv:
		c.SetReg(in.A, c.Reg(in.B)<<(c.Reg(in.C)&31))
	case isa.OpSrlv:
		c.SetReg(in.A, c.Reg(in.B)>>(c.Reg(in.C)&31))
	case isa.OpSrav:
		c.SetReg(in.A, uint32(int32(c.Reg(in.B))>>(c.Reg(in.C)&31)))
	case isa.OpMul:
		c.SetReg(in.A, uint32(int32(c.Reg(in.B))*int32(c.Reg(in.C))))
	case isa.OpMulh:
		p := int64(int32(c.Reg(in.B))) * int64(int32(c.Reg(in.C)))
		c.SetReg(in.A, uint32(p>>32))
	case isa.OpDiv:
		d := int32(c.Reg(in.C))
		if d == 0 {
			return fmt.Errorf("cpu: pc %#x: divide by zero", c.pc)
		}
		c.SetReg(in.A, uint32(int32(c.Reg(in.B))/d))
	case isa.OpRem:
		d := int32(c.Reg(in.C))
		if d == 0 {
			return fmt.Errorf("cpu: pc %#x: remainder by zero", c.pc)
		}
		c.SetReg(in.A, uint32(int32(c.Reg(in.B))%d))

	case isa.OpAddi:
		c.SetReg(in.A, c.Reg(in.B)+uint32(in.Imm))
	case isa.OpAndi:
		c.SetReg(in.A, c.Reg(in.B)&uint32(uint16(in.Imm)))
	case isa.OpOri:
		c.SetReg(in.A, c.Reg(in.B)|uint32(uint16(in.Imm)))
	case isa.OpXori:
		c.SetReg(in.A, c.Reg(in.B)^uint32(uint16(in.Imm)))
	case isa.OpSlti:
		c.SetReg(in.A, boolTo32(int32(c.Reg(in.B)) < in.Imm))
	case isa.OpSltiu:
		c.SetReg(in.A, boolTo32(c.Reg(in.B) < uint32(in.Imm)))
	case isa.OpSlli:
		c.SetReg(in.A, c.Reg(in.B)<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		c.SetReg(in.A, c.Reg(in.B)>>(uint32(in.Imm)&31))
	case isa.OpSrai:
		c.SetReg(in.A, uint32(int32(c.Reg(in.B))>>(uint32(in.Imm)&31)))
	case isa.OpLui:
		c.SetReg(in.A, uint32(in.Imm)<<16)

	case isa.OpLb, isa.OpLbu, isa.OpLh, isa.OpLhu, isa.OpLw, isa.OpMovqL:
		c.execLoad(in)
	case isa.OpSb, isa.OpSh, isa.OpSw, isa.OpMovqS:
		c.execStore(in)

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		c.Stats.Branches++
		outcome := c.evalBranch(in)
		if c.cfg.Bimodal {
			if c.pred.lookup(c.pc) != outcome {
				c.Stats.Mispredicts++
				p := c.clock.Cycles(c.cfg.MispredictPenalty)
				c.now += p
				c.Stats.ComputeTime += p
			}
			c.pred.update(c.pc, outcome)
			if outcome {
				nextPC = uint32(int64(c.pc) + 4 + int64(in.Imm)*4)
				// Correctly predicted taken branches redirect for free;
				// suppress the static penalty below.
			}
			break
		}
		if outcome {
			nextPC = uint32(int64(c.pc) + 4 + int64(in.Imm)*4)
			taken = true
		}
	case isa.OpJ:
		nextPC = uint32(in.Imm) * 4
		taken = true
	case isa.OpJal:
		c.SetReg(isa.RegRA, c.pc+4)
		nextPC = uint32(in.Imm) * 4
		taken = true
	case isa.OpJr:
		nextPC = c.Reg(in.A)
		taken = true
	case isa.OpJalr:
		c.SetReg(in.A, c.pc+4)
		nextPC = c.Reg(in.B)
		taken = true

	case isa.OpSyscall:
		c.Stats.Syscalls++
		c.execSyscall()
	case isa.OpHalt:
		c.halted = true

	case isa.OpMovdGM:
		c.Stats.MMXOps++
		c.mmx[in.A] = uint64(c.Reg(in.B))
	case isa.OpMovdMG:
		c.Stats.MMXOps++
		c.SetReg(in.A, uint32(c.mmx[in.B]))
	default:
		if in.Op.Info().MMX {
			c.Stats.MMXOps++
			c.mmx[in.A] = mmxALU(in.Op, c.mmx[in.B], c.mmx[in.C])
		} else {
			return fmt.Errorf("cpu: pc %#x: unimplemented opcode %s", c.pc, in.Op)
		}
	}

	if taken {
		p := c.clock.Cycles(c.cfg.TakenBranchPenalty)
		c.now += p
		c.Stats.ComputeTime += p
		c.Stats.TakenBranch++
	}
	c.pc = nextPC
	return nil
}

func (c *Core) execLoad(in isa.Inst) {
	addr := uint64(c.Reg(in.B) + uint32(in.Imm))
	size := loadStoreBytes(in.Op)
	t := c.hier.Access(addr, size, memsys.Read)
	c.now += t
	c.Stats.MemTime += t
	c.Stats.Loads++
	switch in.Op {
	case isa.OpLb:
		c.SetReg(in.A, uint32(int32(int8(c.store.ByteAt(addr)))))
	case isa.OpLbu:
		c.SetReg(in.A, uint32(c.store.ByteAt(addr)))
	case isa.OpLh:
		c.SetReg(in.A, uint32(int32(int16(c.store.ReadU16(addr)))))
	case isa.OpLhu:
		c.SetReg(in.A, uint32(c.store.ReadU16(addr)))
	case isa.OpLw:
		c.SetReg(in.A, c.store.ReadU32(addr))
	case isa.OpMovqL:
		c.Stats.MMXOps++
		c.mmx[in.A] = c.store.ReadU64(addr)
	}
}

func (c *Core) execStore(in isa.Inst) {
	addr := uint64(c.Reg(in.B) + uint32(in.Imm))
	size := loadStoreBytes(in.Op)
	t := c.hier.Access(addr, size, memsys.Write)
	c.now += t
	c.Stats.MemTime += t
	c.Stats.Stores++
	switch in.Op {
	case isa.OpSb:
		c.store.SetByte(addr, byte(c.Reg(in.A)))
	case isa.OpSh:
		c.store.WriteU16(addr, uint16(c.Reg(in.A)))
	case isa.OpSw:
		c.store.WriteU32(addr, c.Reg(in.A))
	case isa.OpMovqS:
		c.Stats.MMXOps++
		c.store.WriteU64(addr, c.mmx[in.A])
	}
}

func loadStoreBytes(op isa.Op) uint64 {
	switch op {
	case isa.OpLb, isa.OpLbu, isa.OpSb:
		return 1
	case isa.OpLh, isa.OpLhu, isa.OpSh:
		return 2
	case isa.OpMovqL, isa.OpMovqS:
		return 8
	default:
		return 4
	}
}

func (c *Core) evalBranch(in isa.Inst) bool {
	a, b := c.Reg(in.A), c.Reg(in.B)
	switch in.Op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int32(a) < int32(b)
	case isa.OpBge:
		return int32(a) >= int32(b)
	case isa.OpBltu:
		return a < b
	default:
		return a >= b
	}
}

func (c *Core) execSyscall() {
	switch c.Reg(isa.RegRV) {
	case isa.SysPrintInt:
		fmt.Fprintf(&c.Output, "%d", int32(c.Reg(isa.RegArg0)))
	case isa.SysPrintChar:
		c.Output.WriteByte(byte(c.Reg(isa.RegArg0)))
	case isa.SysBrk:
		// Flat memory: nothing to do.
	}
}

// Run executes until halt or maxInstructions, returning the instruction
// count executed.
func (c *Core) Run(maxInstructions uint64) (uint64, error) {
	var n uint64
	for !c.halted && n < maxInstructions {
		if err := c.Step(); err != nil {
			return n, err
		}
		n++
	}
	if !c.halted {
		return n, fmt.Errorf("cpu: exceeded %d instructions without halting", maxInstructions)
	}
	return n, nil
}

// IPC reports retired instructions per core-clock cycle of total elapsed
// time.
func (c *Core) IPC() float64 {
	if c.now == 0 {
		return 0
	}
	return float64(c.Stats.Instructions) / float64(c.clock.CyclesIn(c.now))
}

func boolTo32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// mmxALU evaluates a packed MMX operation, matching the Intel semantics the
// paper's simulator adopted.
func mmxALU(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpPand:
		return a & b
	case isa.OpPor:
		return a | b
	case isa.OpPxor:
		return a ^ b
	case isa.OpPaddb, isa.OpPsubb, isa.OpPaddusb:
		var r uint64
		for lane := 0; lane < 8; lane++ {
			sh := uint(lane * 8)
			x, y := uint16(a>>sh&0xFF), uint16(b>>sh&0xFF)
			var v uint16
			switch op {
			case isa.OpPaddb:
				v = (x + y) & 0xFF
			case isa.OpPsubb:
				v = (x - y) & 0xFF
			case isa.OpPaddusb:
				v = x + y
				if v > 0xFF {
					v = 0xFF
				}
			}
			r |= uint64(v&0xFF) << sh
		}
		return r
	default:
		var r uint64
		for lane := 0; lane < 4; lane++ {
			sh := uint(lane * 16)
			x, y := int32(int16(a>>sh)), int32(int16(b>>sh))
			var v int32
			switch op {
			case isa.OpPaddw:
				v = x + y
			case isa.OpPsubw:
				v = x - y
			case isa.OpPaddsw:
				v = saturate16(x + y)
			case isa.OpPsubsw:
				v = saturate16(x - y)
			case isa.OpPmullw:
				v = x * y
			}
			r |= uint64(uint16(v)) << sh
		}
		return r
	}
}

func saturate16(v int32) int32 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return v
}
