package microrv32

import (
	"symriscv/internal/faults"
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
)

// opKind is the core's internal micro-op selector, the output of the decode
// table.
type opKind uint8

const (
	opIllegal opKind = iota
	opLUI
	opAUIPC
	opJAL
	opJALR
	opBEQ
	opBNE
	opBLT
	opBGE
	opBLTU
	opBGEU
	opLB
	opLH
	opLW
	opLBU
	opLHU
	opSB
	opSH
	opSW
	opADDI
	opSLTI
	opSLTIU
	opXORI
	opORI
	opANDI
	opSLLI
	opSRLI
	opSRAI
	opADD
	opSUB
	opSLL
	opSLT
	opSLTU
	opXOR
	opSRL
	opSRA
	opOR
	opAND
	opMUL
	opMULH
	opMULHSU
	opMULHU
	opDIV
	opDIVU
	opREM
	opREMU
	opFENCE
	opECALL
	opEBREAK
	opWFI
	opMRET
	opCSRRW
	opCSRRS
	opCSRRC
	opCSRRWI
	opCSRRSI
	opCSRRCI
)

// decodeEntry is one row of the SpinalHDL-style decode table: the
// instruction matches when (insn AND mask) == match.
type decodeEntry struct {
	mask, match uint32
	op          opKind
}

// bit25 is the RV64 shamt extension bit, reserved in RV32 shift-immediate
// encodings; the decode faults E0–E2 turn it into a don't-care.
const bit25 = uint32(1) << 25

// buildDecodeTable assembles the decode table, applying the decode-stage
// faults by clearing mask bits (don't-cares) and appending the M-extension
// rows when enabled.
func buildDecodeTable(f faults.Set, enableM bool) []decodeEntry {
	slliMask := uint32(0xfe00707f)
	srliMask := uint32(0xfe00707f)
	sraiMask := uint32(0xfe00707f)
	if f.Has(faults.E0) {
		slliMask &^= bit25
	}
	if f.Has(faults.E1) {
		srliMask &^= bit25
	}
	if f.Has(faults.E2) {
		sraiMask &^= bit25
	}

	table := []decodeEntry{
		{0x7f, riscv.OpLUI, opLUI},
		{0x7f, riscv.OpAUIPC, opAUIPC},
		{0x7f, riscv.OpJAL, opJAL},
		{0x707f, riscv.OpJALR, opJALR},

		{0x707f, riscv.F3BEQ<<12 | riscv.OpBranch, opBEQ},
		{0x707f, riscv.F3BNE<<12 | riscv.OpBranch, opBNE},
		{0x707f, riscv.F3BLT<<12 | riscv.OpBranch, opBLT},
		{0x707f, riscv.F3BGE<<12 | riscv.OpBranch, opBGE},
		{0x707f, riscv.F3BLTU<<12 | riscv.OpBranch, opBLTU},
		{0x707f, riscv.F3BGEU<<12 | riscv.OpBranch, opBGEU},

		{0x707f, riscv.F3LB<<12 | riscv.OpLoad, opLB},
		{0x707f, riscv.F3LH<<12 | riscv.OpLoad, opLH},
		{0x707f, riscv.F3LW<<12 | riscv.OpLoad, opLW},
		{0x707f, riscv.F3LBU<<12 | riscv.OpLoad, opLBU},
		{0x707f, riscv.F3LHU<<12 | riscv.OpLoad, opLHU},

		{0x707f, riscv.F3SB<<12 | riscv.OpStore, opSB},
		{0x707f, riscv.F3SH<<12 | riscv.OpStore, opSH},
		{0x707f, riscv.F3SW<<12 | riscv.OpStore, opSW},

		{0x707f, riscv.F3ADDSUB<<12 | riscv.OpImm, opADDI},
		{0x707f, riscv.F3SLT<<12 | riscv.OpImm, opSLTI},
		{0x707f, riscv.F3SLTU<<12 | riscv.OpImm, opSLTIU},
		{0x707f, riscv.F3XOR<<12 | riscv.OpImm, opXORI},
		{0x707f, riscv.F3OR<<12 | riscv.OpImm, opORI},
		{0x707f, riscv.F3AND<<12 | riscv.OpImm, opANDI},
		{slliMask, riscv.F3SLL<<12 | riscv.OpImm, opSLLI},
		{srliMask, riscv.F3SRL<<12 | riscv.OpImm, opSRLI},
		{sraiMask, 0x40000000 | riscv.F3SRL<<12 | riscv.OpImm, opSRAI},

		{0xfe00707f, riscv.F3ADDSUB<<12 | riscv.OpReg, opADD},
		{0xfe00707f, 0x40000000 | riscv.F3ADDSUB<<12 | riscv.OpReg, opSUB},
		{0xfe00707f, riscv.F3SLL<<12 | riscv.OpReg, opSLL},
		{0xfe00707f, riscv.F3SLT<<12 | riscv.OpReg, opSLT},
		{0xfe00707f, riscv.F3SLTU<<12 | riscv.OpReg, opSLTU},
		{0xfe00707f, riscv.F3XOR<<12 | riscv.OpReg, opXOR},
		{0xfe00707f, riscv.F3SRL<<12 | riscv.OpReg, opSRL},
		{0xfe00707f, 0x40000000 | riscv.F3SRL<<12 | riscv.OpReg, opSRA},
		{0xfe00707f, riscv.F3OR<<12 | riscv.OpReg, opOR},
		{0xfe00707f, riscv.F3AND<<12 | riscv.OpReg, opAND},

		{0x707f, riscv.OpMisc, opFENCE},

		{0xffffffff, riscv.F12ECALL<<20 | riscv.OpSystem, opECALL},
		{0xffffffff, riscv.F12EBREAK<<20 | riscv.OpSystem, opEBREAK},
		{0xffffffff, riscv.F12WFI<<20 | riscv.OpSystem, opWFI},
		{0xffffffff, riscv.F12MRET<<20 | riscv.OpSystem, opMRET},

		{0x707f, uint32(riscv.F3CSRRW)<<12 | riscv.OpSystem, opCSRRW},
		{0x707f, uint32(riscv.F3CSRRS)<<12 | riscv.OpSystem, opCSRRS},
		{0x707f, uint32(riscv.F3CSRRC)<<12 | riscv.OpSystem, opCSRRC},
		{0x707f, uint32(riscv.F3CSRRWI)<<12 | riscv.OpSystem, opCSRRWI},
		{0x707f, uint32(riscv.F3CSRRSI)<<12 | riscv.OpSystem, opCSRRSI},
		{0x707f, uint32(riscv.F3CSRRCI)<<12 | riscv.OpSystem, opCSRRCI},
	}
	if enableM {
		// Fixed order: the decode walk must be identical on every path of an
		// exploration (replay determinism).
		mRows := []struct {
			f3 uint32
			op opKind
		}{
			{riscv.F3MUL, opMUL}, {riscv.F3MULH, opMULH},
			{riscv.F3MULHSU, opMULHSU}, {riscv.F3MULHU, opMULHU},
			{riscv.F3DIV, opDIV}, {riscv.F3DIVU, opDIVU},
			{riscv.F3REM, opREM}, {riscv.F3REMU, opREMU},
		}
		for _, r := range mRows {
			table = append(table, decodeEntry{0xfe00707f, riscv.F7MulDiv<<25 | r.f3<<12 | riscv.OpReg, r.op})
		}
	}
	return table
}

// decode walks the decode table, forking the exploration over the matching
// entries; no match decodes to opIllegal.
func (c *Core) decode(insn *smt.Term) opKind {
	ctx := c.ctx
	for i, e := range c.table {
		cond := ctx.Eq(ctx.And(insn, c.tableConst(2*i, e.mask)), c.tableConst(2*i+1, e.match))
		if c.eng.Branch(cond) {
			return e.op
		}
	}
	return opIllegal
}

// tableConst returns the 32-bit constant v memoized in consts slot i.
func (c *Core) tableConst(i int, v uint32) *smt.Term {
	if c.consts[i] == nil {
		c.consts[i] = c.bv(v)
	}
	return c.consts[i]
}
