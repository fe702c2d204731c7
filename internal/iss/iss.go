// Package iss implements the reference Instruction Set Simulator in the role
// of the RISC-V VP's ISS: an instruction-accurate RV32I + Zicsr model
// executing over symbolic values. It is the golden model of the
// co-simulation; the voter compares its per-step results against the RTL
// core's RVFI records.
//
// The VP's two real bugs reported in the paper (illegal-instruction trap on
// *reads* of mideleg and medeleg) are reproduced behind Config switches so
// Table I's E* rows can be regenerated.
package iss

import (
	"symriscv/internal/core"
	"symriscv/internal/riscv"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// InstrFetcher supplies (cached, shared) instruction words by address — the
// symbolic instruction memory.
type InstrFetcher interface {
	Fetch(addr uint32) *smt.Term
}

// DataMemory is the ISS's typed data-memory binding: byte-granular raw
// accesses; sign/zero extension is the ISS's job (per §IV-C.2 of the paper).
type DataMemory interface {
	LoadByte(addr uint32) *smt.Term // width 8
	LoadHalf(addr uint32) *smt.Term // width 16
	LoadWord(addr uint32) *smt.Term // width 32
	StoreByte(addr uint32, v *smt.Term)
	StoreHalf(addr uint32, v *smt.Term)
	StoreWord(addr uint32, v *smt.Term)
}

// Config selects the ISS behaviour variant.
type Config struct {
	// TrapOnMisaligned raises load/store-address-misaligned exceptions (the
	// VP behaviour; the permissible alternative is full misaligned support).
	TrapOnMisaligned bool
	// MidelegReadTrap reproduces the VP bug of trapping on mideleg reads.
	MidelegReadTrap bool
	// MedelegReadTrap reproduces the VP bug of trapping on medeleg reads.
	MedelegReadTrap bool
	// EnableM adds the RV32M multiply/divide extension (off by default: the
	// paper's case study targets RV32I+Zicsr).
	EnableM bool
}

// VPConfig returns the as-shipped RISC-V VP behaviour, including its two
// bugs from Table I.
func VPConfig() Config {
	return Config{TrapOnMisaligned: true, MidelegReadTrap: true, MedelegReadTrap: true}
}

// FixedConfig returns the VP behaviour with the two bugs repaired.
func FixedConfig() Config {
	return Config{TrapOnMisaligned: true}
}

// Result reports the architectural effect of one Step for the checker. It is
// the reference half of the rvfi comparison; the alias keeps the ISS free of
// its own result shape so any checker consumer sees one canonical type.
type Result = rvfi.Reference

// ISS is the reference simulator state.
type ISS struct {
	cfg  Config
	eng  *core.Engine
	ctx  *smt.Context
	imem InstrFetcher
	dmem DataMemory

	pc          *smt.Term
	regs        [32]*smt.Term
	interesting []int // register indices whose content is distinguished

	csr     map[uint16]*smt.Term
	instret uint64

	irq   IrqSource
	steps uint64
}

// IrqSource supplies the (symbolic) machine-external-interrupt line, one
// 1-bit term per instruction slot (the canonical contract lives in rvfi).
type IrqSource = rvfi.IrqSource

// New returns an ISS with all registers zero and PC 0.
func New(eng *core.Engine, imem InstrFetcher, dmem DataMemory, cfg Config) *ISS {
	s := new(ISS)
	s.Reset(eng, imem, dmem, cfg)
	return s
}

// Reset puts the ISS into its reset state (registers zero, PC 0) for a path
// of eng over the given memories, reusing its storage.
func (s *ISS) Reset(eng *core.Engine, imem InstrFetcher, dmem DataMemory, cfg Config) {
	ctx := eng.Context()
	csr := s.csr
	if csr == nil {
		csr = make(map[uint16]*smt.Term)
	}
	clear(csr)
	*s = ISS{cfg: cfg, eng: eng, ctx: ctx, imem: imem, dmem: dmem, pc: ctx.BV(32, 0), csr: csr,
		interesting: append(s.interesting[:0], 0)}
	zero := ctx.BV(32, 0)
	for i := range s.regs {
		s.regs[i] = zero
	}
}

// SetPC sets the program counter.
func (s *ISS) SetPC(pc uint32) { s.pc = s.ctx.BV(32, uint64(pc)) }

// SetIrqSource connects the external interrupt line (testbench hook).
func (s *ISS) SetIrqSource(src IrqSource) { s.irq = src }

// SetCSR initialises a CSR's storage (testbench hook for symbolic initial
// machine state).
func (s *ISS) SetCSR(addr uint16, v *smt.Term) { s.csr[addr] = v }

// PC returns the current program counter term.
func (s *ISS) PC() *smt.Term { return s.pc }

// SetReg initialises register i (used by the testbench to install the sliced
// symbolic registers). Writing x0 is ignored.
func (s *ISS) SetReg(i int, v *smt.Term) {
	if i == 0 {
		return
	}
	s.regs[i] = v
	s.markInteresting(i)
}

// Reg returns the current value of register i.
func (s *ISS) Reg(i int) *smt.Term { return s.regs[i] }

func (s *ISS) markInteresting(i int) {
	for p, x := range s.interesting {
		if x == i {
			return
		}
		if x > i {
			s.interesting = append(s.interesting, 0)
			copy(s.interesting[p+1:], s.interesting[p:])
			s.interesting[p] = i
			return
		}
	}
	s.interesting = append(s.interesting, i)
}

func (s *ISS) writeReg(i int, v *smt.Term) {
	if i == 0 {
		return
	}
	s.regs[i] = v
	s.markInteresting(i)
}

// chooseReg resolves a symbolic 5-bit register field to a concrete index.
// Register indices with distinguished content (x0, the symbolic slice, and
// anything written on this path) fork explicitly; the remaining indices all
// hold identical content, so one concretized representative covers the class.
func (s *ISS) chooseReg(field *smt.Term) int {
	for _, i := range s.interesting {
		if s.eng.BranchEq(field, s.ctx.BV(5, uint64(i))) {
			return i
		}
	}
	return int(s.eng.Concretize(field))
}

// match asks the engine whether the instruction matches the mask/match pair.
func (s *ISS) match(insn *smt.Term, mask, match uint32) bool {
	return s.eng.Branch(s.ctx.Eq(
		s.ctx.And(insn, s.ctx.BV(32, uint64(mask))),
		s.ctx.BV(32, uint64(match)),
	))
}

func (s *ISS) bv(v uint32) *smt.Term { return s.ctx.BV(32, uint64(v)) }

// trap redirects control to the machine trap vector.
func (s *ISS) trap(r *Result, cause uint32, tval *smt.Term) {
	s.csr[riscv.CSRMEpc] = r.PC
	s.csr[riscv.CSRMCause] = s.bv(cause)
	if tval != nil {
		s.csr[riscv.CSRMTval] = tval
	} else {
		s.csr[riscv.CSRMTval] = s.bv(0)
	}
	r.Trap = true
	r.Cause = cause
	r.NextPC = s.csrStored(riscv.CSRMTvec)
	// The destination register is not written on a trapped instruction.
	r.RdAddr = 0
	r.RdValue = nil
}

func (s *ISS) csrStored(addr uint16) *smt.Term {
	if v, ok := s.csr[addr]; ok {
		return v
	}
	return s.bv(0)
}

// Step fetches, decodes and executes one instruction, advancing the ISS.
// When an interrupt source is connected, the external line is sampled first
// (one opportunity per instruction slot).
func (s *ISS) Step() Result {
	if s.irq != nil {
		taken := riscv.SymInterruptTaken(s.ctx, s.irq.Line(s.steps),
			s.csrStored(riscv.CSRMStatus), s.csrStored(riscv.CSRMIe))
		if s.eng.Branch(taken) {
			s.csr[riscv.CSRMEpc] = s.pc
			s.csr[riscv.CSRMCause] = s.bv(riscv.CauseMachineExternalIRQ)
			s.pc = s.csrStored(riscv.CSRMTvec)
		}
	}
	s.steps++
	pcVal := uint32(s.eng.Concretize(s.pc))
	pc := s.bv(pcVal)
	insn := s.imem.Fetch(pcVal)

	r := Result{PC: pc, Insn: insn}
	pcPlus4 := s.bv(pcVal + 4)
	r.NextPC = pcPlus4

	s.execute(&r, insn, pc, pcPlus4)

	s.pc = r.NextPC
	if !r.Trap {
		s.instret++
	}
	s.eng.CountInstruction(1)
	return r
}

func (s *ISS) execute(r *Result, insn, pc, pcPlus4 *smt.Term) {
	ctx := s.ctx

	switch {
	case s.match(insn, 0x7f, riscv.OpLUI):
		rd := s.chooseReg(riscv.FieldRd(ctx, insn))
		s.setRd(r, rd, riscv.SymImmU(ctx, insn))

	case s.match(insn, 0x7f, riscv.OpAUIPC):
		rd := s.chooseReg(riscv.FieldRd(ctx, insn))
		s.setRd(r, rd, ctx.Add(pc, riscv.SymImmU(ctx, insn)))

	case s.match(insn, 0x7f, riscv.OpJAL):
		rd := s.chooseReg(riscv.FieldRd(ctx, insn))
		r.NextPC = ctx.Add(pc, riscv.SymImmJ(ctx, insn))
		s.setRd(r, rd, pcPlus4)

	case s.match(insn, 0x707f, riscv.OpJALR):
		rd := s.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
		target := ctx.And(ctx.Add(s.regs[rs1], riscv.SymImmI(ctx, insn)), s.bv(0xfffffffe))
		r.NextPC = target
		s.setRd(r, rd, pcPlus4)

	case s.match(insn, 0x7f, riscv.OpBranch):
		s.branch(r, insn, pc, pcPlus4)

	case s.match(insn, 0x7f, riscv.OpLoad):
		s.load(r, insn)

	case s.match(insn, 0x7f, riscv.OpStore):
		s.store(r, insn)

	case s.match(insn, 0x7f, riscv.OpImm):
		s.opImm(r, insn)

	case s.match(insn, 0x7f, riscv.OpReg):
		s.opReg(r, insn)

	case s.match(insn, 0x707f, riscv.OpMisc):
		// FENCE: a NOP for this single-hart model.

	case s.match(insn, 0xffffffff, riscv.F12ECALL<<20|riscv.OpSystem):
		s.trap(r, riscv.ExcEnvCallFromM, nil)

	case s.match(insn, 0xffffffff, riscv.F12EBREAK<<20|riscv.OpSystem):
		s.trap(r, riscv.ExcBreakpoint, nil)

	case s.match(insn, 0xffffffff, riscv.F12WFI<<20|riscv.OpSystem):
		// WFI: legal to implement as a NOP; the VP does.

	case s.match(insn, 0xffffffff, riscv.F12MRET<<20|riscv.OpSystem):
		r.NextPC = s.csrStored(riscv.CSRMEpc)

	case s.match(insn, 0x7f, riscv.OpSystem):
		s.csrOp(r, insn)

	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
	}
}

func (s *ISS) setRd(r *Result, rd int, v *smt.Term) {
	s.writeReg(rd, v)
	if rd != 0 {
		r.RdAddr = rd
		r.RdValue = v
	}
}

func (s *ISS) branch(r *Result, insn, pc, pcPlus4 *smt.Term) {
	ctx := s.ctx
	rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
	rs2 := s.chooseReg(riscv.FieldRs2(ctx, insn))
	a, b := s.regs[rs1], s.regs[rs2]

	var cond *smt.Term
	switch {
	case s.match(insn, 0x707f, riscv.F3BEQ<<12|riscv.OpBranch):
		cond = ctx.Eq(a, b)
	case s.match(insn, 0x707f, riscv.F3BNE<<12|riscv.OpBranch):
		cond = ctx.Ne(a, b)
	case s.match(insn, 0x707f, riscv.F3BLT<<12|riscv.OpBranch):
		cond = ctx.Slt(a, b)
	case s.match(insn, 0x707f, riscv.F3BGE<<12|riscv.OpBranch):
		cond = ctx.Sge(a, b)
	case s.match(insn, 0x707f, riscv.F3BLTU<<12|riscv.OpBranch):
		cond = ctx.Ult(a, b)
	case s.match(insn, 0x707f, riscv.F3BGEU<<12|riscv.OpBranch):
		cond = ctx.Uge(a, b)
	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
		return
	}
	if s.eng.Branch(cond) {
		r.NextPC = ctx.Add(pc, riscv.SymImmB(ctx, insn))
	} else {
		r.NextPC = pcPlus4
	}
}

func (s *ISS) load(r *Result, insn *smt.Term) {
	ctx := s.ctx
	rd := s.chooseReg(riscv.FieldRd(ctx, insn))
	rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
	ea := ctx.Add(s.regs[rs1], riscv.SymImmI(ctx, insn))
	r.MemAddr = ea

	switch {
	case s.match(insn, 0x707f, riscv.F3LB<<12|riscv.OpLoad):
		addr := uint32(s.eng.Concretize(ea))
		s.setRd(r, rd, ctx.SExt(s.dmem.LoadByte(addr), 32))

	case s.match(insn, 0x707f, riscv.F3LBU<<12|riscv.OpLoad):
		addr := uint32(s.eng.Concretize(ea))
		s.setRd(r, rd, ctx.ZExt(s.dmem.LoadByte(addr), 32))

	case s.match(insn, 0x707f, riscv.F3LH<<12|riscv.OpLoad):
		if s.misaligned(r, ea, 1, riscv.ExcLoadAddrMisaligned) {
			return
		}
		addr := uint32(s.eng.Concretize(ea))
		s.setRd(r, rd, ctx.SExt(s.dmem.LoadHalf(addr), 32))

	case s.match(insn, 0x707f, riscv.F3LHU<<12|riscv.OpLoad):
		if s.misaligned(r, ea, 1, riscv.ExcLoadAddrMisaligned) {
			return
		}
		addr := uint32(s.eng.Concretize(ea))
		s.setRd(r, rd, ctx.ZExt(s.dmem.LoadHalf(addr), 32))

	case s.match(insn, 0x707f, riscv.F3LW<<12|riscv.OpLoad):
		if s.misaligned(r, ea, 3, riscv.ExcLoadAddrMisaligned) {
			return
		}
		addr := uint32(s.eng.Concretize(ea))
		s.setRd(r, rd, s.dmem.LoadWord(addr))

	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
	}
}

// misaligned branches on the alignment condition of ea, trapping when the
// configuration demands it. It reports whether the instruction trapped.
func (s *ISS) misaligned(r *Result, ea *smt.Term, lowMask uint32, cause uint32) bool {
	if !s.cfg.TrapOnMisaligned {
		return false
	}
	ctx := s.ctx
	cond := ctx.Ne(ctx.And(ea, s.bv(lowMask)), s.bv(0))
	if s.eng.Branch(cond) {
		s.trap(r, cause, ea)
		return true
	}
	return false
}

func (s *ISS) store(r *Result, insn *smt.Term) {
	ctx := s.ctx
	rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
	rs2 := s.chooseReg(riscv.FieldRs2(ctx, insn))
	ea := ctx.Add(s.regs[rs1], riscv.SymImmS(ctx, insn))
	val := s.regs[rs2]
	r.MemAddr = ea
	r.MemWrite = true

	switch {
	case s.match(insn, 0x707f, riscv.F3SB<<12|riscv.OpStore):
		addr := uint32(s.eng.Concretize(ea))
		s.dmem.StoreByte(addr, ctx.Extract(val, 7, 0))
		r.MemWData, r.MemWBytes = ctx.ZExt(ctx.Extract(val, 7, 0), 32), 1

	case s.match(insn, 0x707f, riscv.F3SH<<12|riscv.OpStore):
		if s.misaligned(r, ea, 1, riscv.ExcStoreAddrMisaligned) {
			return
		}
		addr := uint32(s.eng.Concretize(ea))
		s.dmem.StoreHalf(addr, ctx.Extract(val, 15, 0))
		r.MemWData, r.MemWBytes = ctx.ZExt(ctx.Extract(val, 15, 0), 32), 2

	case s.match(insn, 0x707f, riscv.F3SW<<12|riscv.OpStore):
		if s.misaligned(r, ea, 3, riscv.ExcStoreAddrMisaligned) {
			return
		}
		addr := uint32(s.eng.Concretize(ea))
		s.dmem.StoreWord(addr, val)
		r.MemWData, r.MemWBytes = val, 4

	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
	}
}

func (s *ISS) opImm(r *Result, insn *smt.Term) {
	ctx := s.ctx
	rd := s.chooseReg(riscv.FieldRd(ctx, insn))
	rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
	a := s.regs[rs1]
	imm := riscv.SymImmI(ctx, insn)
	shamt := ctx.ZExt(riscv.FieldShamt(ctx, insn), 32)

	switch {
	case s.match(insn, 0x707f, riscv.F3ADDSUB<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.Add(a, imm))
	case s.match(insn, 0x707f, riscv.F3SLT<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.ZExt(ctx.BoolToBV(ctx.Slt(a, imm)), 32))
	case s.match(insn, 0x707f, riscv.F3SLTU<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.ZExt(ctx.BoolToBV(ctx.Ult(a, imm)), 32))
	case s.match(insn, 0x707f, riscv.F3XOR<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.Xor(a, imm))
	case s.match(insn, 0x707f, riscv.F3OR<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.Or(a, imm))
	case s.match(insn, 0x707f, riscv.F3AND<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.And(a, imm))
	case s.match(insn, 0xfe00707f, riscv.F3SLL<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.Shl(a, shamt))
	case s.match(insn, 0xfe00707f, riscv.F3SRL<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.Lshr(a, shamt))
	case s.match(insn, 0xfe00707f, 0x40000000|riscv.F3SRL<<12|riscv.OpImm):
		s.setRd(r, rd, ctx.Ashr(a, shamt))
	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
	}
}

func (s *ISS) opReg(r *Result, insn *smt.Term) {
	ctx := s.ctx
	rd := s.chooseReg(riscv.FieldRd(ctx, insn))
	rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
	rs2 := s.chooseReg(riscv.FieldRs2(ctx, insn))
	a, b := s.regs[rs1], s.regs[rs2]
	shamt := ctx.And(b, s.bv(31))

	switch {
	case s.match(insn, 0xfe00707f, riscv.F3ADDSUB<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Add(a, b))
	case s.match(insn, 0xfe00707f, 0x40000000|riscv.F3ADDSUB<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Sub(a, b))
	case s.match(insn, 0xfe00707f, riscv.F3SLL<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Shl(a, shamt))
	case s.match(insn, 0xfe00707f, riscv.F3SLT<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.ZExt(ctx.BoolToBV(ctx.Slt(a, b)), 32))
	case s.match(insn, 0xfe00707f, riscv.F3SLTU<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.ZExt(ctx.BoolToBV(ctx.Ult(a, b)), 32))
	case s.match(insn, 0xfe00707f, riscv.F3XOR<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Xor(a, b))
	case s.match(insn, 0xfe00707f, riscv.F3SRL<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Lshr(a, shamt))
	case s.match(insn, 0xfe00707f, 0x40000000|riscv.F3SRL<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Ashr(a, shamt))
	case s.match(insn, 0xfe00707f, riscv.F3OR<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.Or(a, b))
	case s.match(insn, 0xfe00707f, riscv.F3AND<<12|riscv.OpReg):
		s.setRd(r, rd, ctx.And(a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3MUL<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymMul(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3MULH<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymMulH(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3MULHSU<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymMulHSU(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3MULHU<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymMulHU(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3DIV<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymDiv(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3DIVU<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymDivU(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3REM<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymRem(ctx, a, b))
	case s.cfg.EnableM && s.match(insn, 0xfe00707f, riscv.F7MulDiv<<25|riscv.F3REMU<<12|riscv.OpReg):
		s.setRd(r, rd, riscv.SymRemU(ctx, a, b))
	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
	}
}
