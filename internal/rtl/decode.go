package rtl

import (
	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
)

// Op is the micro-op selector both cores' decode tables produce.
type Op uint8

// The micro-ops, in the order of the mnemonics they implement.
const (
	OpIllegal Op = iota
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpFENCE
	OpECALL
	OpEBREAK
	OpWFI
	OpMRET
	OpCSRRW
	OpCSRRS
	OpCSRRC
	OpCSRRWI
	OpCSRRSI
	OpCSRRCI
)

// opNames maps each micro-op to the riscv-package mnemonic it implements,
// so the static decode-table verifier can compare a table against the
// independent reference decoder without a private mapping of its own.
var opNames = [...]string{
	OpIllegal: "illegal",
	OpLUI:     "lui", OpAUIPC: "auipc", OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLBU: "lbu", OpLHU: "lhu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu",
	OpXORI: "xori", OpORI: "ori", OpANDI: "andi",
	OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpADD: "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpFENCE: "fence", OpECALL: "ecall", OpEBREAK: "ebreak",
	OpWFI: "wfi", OpMRET: "mret",
	OpCSRRW: "csrrw", OpCSRRS: "csrrs", OpCSRRC: "csrrc",
	OpCSRRWI: "csrrwi", OpCSRRSI: "csrrsi", OpCSRRCI: "csrrci",
}

// String returns the mnemonic the micro-op implements.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// MarshalText renders the micro-op as its mnemonic in JSON reports.
func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// IsStore reports whether the micro-op is SB, SH or SW.
func (o Op) IsStore() bool { return o == OpSB || o == OpSH || o == OpSW }

// Row is one row of the SpinalHDL-style decode table: the instruction
// matches when insn&Mask == Match and decodes to Op.
type Row struct {
	Mask, Match uint32
	Op          Op
}

// bit25 is the RV64 shamt extension bit, reserved in RV32 shift-immediate
// encodings; the decode faults E0–E2 turn it into a don't-care.
const bit25 = uint32(1) << 25

// DecodeTable builds the decode table in walk order. The decode-stage
// faults E0–E2 clear mask bits (don't-cares); zicsr includes the MRET and
// Zicsr rows (without them those words decode as illegal).
func DecodeTable(f faults.Set, zicsr bool) []Row {
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

	table := []Row{
		{0x7f, riscv.OpLUI, OpLUI},
		{0x7f, riscv.OpAUIPC, OpAUIPC},
		{0x7f, riscv.OpJAL, OpJAL},
		{0x707f, riscv.OpJALR, OpJALR},

		{0x707f, riscv.F3BEQ<<12 | riscv.OpBranch, OpBEQ},
		{0x707f, riscv.F3BNE<<12 | riscv.OpBranch, OpBNE},
		{0x707f, riscv.F3BLT<<12 | riscv.OpBranch, OpBLT},
		{0x707f, riscv.F3BGE<<12 | riscv.OpBranch, OpBGE},
		{0x707f, riscv.F3BLTU<<12 | riscv.OpBranch, OpBLTU},
		{0x707f, riscv.F3BGEU<<12 | riscv.OpBranch, OpBGEU},

		{0x707f, riscv.F3LB<<12 | riscv.OpLoad, OpLB},
		{0x707f, riscv.F3LH<<12 | riscv.OpLoad, OpLH},
		{0x707f, riscv.F3LW<<12 | riscv.OpLoad, OpLW},
		{0x707f, riscv.F3LBU<<12 | riscv.OpLoad, OpLBU},
		{0x707f, riscv.F3LHU<<12 | riscv.OpLoad, OpLHU},

		{0x707f, riscv.F3SB<<12 | riscv.OpStore, OpSB},
		{0x707f, riscv.F3SH<<12 | riscv.OpStore, OpSH},
		{0x707f, riscv.F3SW<<12 | riscv.OpStore, OpSW},

		{0x707f, riscv.F3ADDSUB<<12 | riscv.OpImm, OpADDI},
		{0x707f, riscv.F3SLT<<12 | riscv.OpImm, OpSLTI},
		{0x707f, riscv.F3SLTU<<12 | riscv.OpImm, OpSLTIU},
		{0x707f, riscv.F3XOR<<12 | riscv.OpImm, OpXORI},
		{0x707f, riscv.F3OR<<12 | riscv.OpImm, OpORI},
		{0x707f, riscv.F3AND<<12 | riscv.OpImm, OpANDI},
		{slliMask, riscv.F3SLL<<12 | riscv.OpImm, OpSLLI},
		{srliMask, riscv.F3SRL<<12 | riscv.OpImm, OpSRLI},
		{sraiMask, 0x40000000 | riscv.F3SRL<<12 | riscv.OpImm, OpSRAI},

		{0xfe00707f, riscv.F3ADDSUB<<12 | riscv.OpReg, OpADD},
		{0xfe00707f, 0x40000000 | riscv.F3ADDSUB<<12 | riscv.OpReg, OpSUB},
		{0xfe00707f, riscv.F3SLL<<12 | riscv.OpReg, OpSLL},
		{0xfe00707f, riscv.F3SLT<<12 | riscv.OpReg, OpSLT},
		{0xfe00707f, riscv.F3SLTU<<12 | riscv.OpReg, OpSLTU},
		{0xfe00707f, riscv.F3XOR<<12 | riscv.OpReg, OpXOR},
		{0xfe00707f, riscv.F3SRL<<12 | riscv.OpReg, OpSRL},
		{0xfe00707f, 0x40000000 | riscv.F3SRL<<12 | riscv.OpReg, OpSRA},
		{0xfe00707f, riscv.F3OR<<12 | riscv.OpReg, OpOR},
		{0xfe00707f, riscv.F3AND<<12 | riscv.OpReg, OpAND},

		{0x707f, riscv.OpMisc, OpFENCE},

		{0xffffffff, riscv.F12ECALL<<20 | riscv.OpSystem, OpECALL},
		{0xffffffff, riscv.F12EBREAK<<20 | riscv.OpSystem, OpEBREAK},
		{0xffffffff, riscv.F12WFI<<20 | riscv.OpSystem, OpWFI},
	}
	if zicsr {
		table = append(table,
			Row{0xffffffff, riscv.F12MRET<<20 | riscv.OpSystem, OpMRET},
			Row{0x707f, uint32(riscv.F3CSRRW)<<12 | riscv.OpSystem, OpCSRRW},
			Row{0x707f, uint32(riscv.F3CSRRS)<<12 | riscv.OpSystem, OpCSRRS},
			Row{0x707f, uint32(riscv.F3CSRRC)<<12 | riscv.OpSystem, OpCSRRC},
			Row{0x707f, uint32(riscv.F3CSRRWI)<<12 | riscv.OpSystem, OpCSRRWI},
			Row{0x707f, uint32(riscv.F3CSRRSI)<<12 | riscv.OpSystem, OpCSRRSI},
			Row{0x707f, uint32(riscv.F3CSRRCI)<<12 | riscv.OpSystem, OpCSRRCI},
		)
	}
	return table
}

// Decoder is a core's decode stage: its table and the table's mask and
// match terms, memoised per term context.
type Decoder struct {
	rows   []Row
	consts []*smt.Term // row i's mask and match terms at 2i, 2i+1; nil until first use
	ctx    *smt.Context
	f      faults.Set
	zicsr  bool
}

// Reset readies the decoder for a path in ctx. It rebuilds the table only
// for a new configuration, and drops the memoised terms when ctx is not
// theirs.
func (d *Decoder) Reset(ctx *smt.Context, f faults.Set, zicsr bool) {
	if d.rows == nil || f != d.f || zicsr != d.zicsr {
		d.rows = DecodeTable(f, zicsr)
		d.consts = make([]*smt.Term, 2*len(d.rows))
		d.f, d.zicsr = f, zicsr
	} else if ctx != d.ctx {
		clear(d.consts)
	}
	d.ctx = ctx
}

// Decode walks the table, forking the exploration over the matching rows;
// no match decodes to OpIllegal.
func (d *Decoder) Decode(eng *core.Engine, insn *smt.Term) Op {
	ctx := d.ctx
	for i, e := range d.rows {
		cond := ctx.Eq(ctx.And(insn, d.konst(2*i, e.Mask)), d.konst(2*i+1, e.Match))
		if eng.Branch(cond) {
			return e.Op
		}
	}
	return OpIllegal
}

// konst returns the 32-bit constant v memoised in consts slot i.
func (d *Decoder) konst(i int, v uint32) *smt.Term {
	if d.consts[i] == nil {
		d.consts[i] = d.ctx.BV(32, uint64(v))
	}
	return d.consts[i]
}
