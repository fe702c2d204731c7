package rtl

import (
	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
)

// RegFile is the register file with the paper's register slicing: X holds
// the 32 register values, and the interesting set lists, ascending, x0 and
// every register ever given a value of its own. A register field forks only
// over the interesting set; every other register still holds zero.
type RegFile struct {
	X           [32]*smt.Term
	interesting []int
}

// Reset sets every register to zero and empties the interesting set to
// x0, reusing its storage.
func (r *RegFile) Reset(zero *smt.Term) {
	r.interesting = append(r.interesting[:0], 0)
	for i := range r.X {
		r.X[i] = zero
	}
}

// Write sets register i and marks it interesting. Writes to x0 are ignored.
func (r *RegFile) Write(i int, v *smt.Term) {
	if i == 0 {
		return
	}
	r.X[i] = v
	for p, x := range r.interesting {
		if x == i {
			return
		}
		if x > i {
			r.interesting = append(r.interesting, 0)
			copy(r.interesting[p+1:], r.interesting[p:])
			r.interesting[p] = i
			return
		}
	}
	r.interesting = append(r.interesting, i)
}

// Choose resolves a 5-bit register field: it forks over the interesting
// registers in ascending order and concretizes the field when it names
// none of them.
func (r *RegFile) Choose(eng *core.Engine, field *smt.Term) int {
	ctx := eng.Context()
	for _, i := range r.interesting {
		if eng.BranchEq(field, ctx.BV(5, uint64(i))) {
			return i
		}
	}
	return int(eng.Concretize(field))
}

// JALTarget returns JAL's next PC, pc plus the J-immediate. E5: JAL fails
// to change the PC.
func JALTarget(ctx *smt.Context, f faults.Set, insn, pc, pcPlus4 *smt.Term) *smt.Term {
	next := ctx.Add(pc, riscv.SymImmJ(ctx, insn))
	if f.Has(faults.E5) {
		next = pcPlus4
	}
	return next
}

// BranchCond returns the taken condition of a conditional branch over the
// operands a (rs1) and b (rs2). E6: BNE behaves like BEQ.
func BranchCond(ctx *smt.Context, f faults.Set, op Op, a, b *smt.Term) *smt.Term {
	switch op {
	case OpBEQ:
		return ctx.Eq(a, b)
	case OpBNE:
		if f.Has(faults.E6) {
			return ctx.Eq(a, b)
		}
		return ctx.Ne(a, b)
	case OpBLT:
		return ctx.Slt(a, b)
	case OpBGE:
		return ctx.Sge(a, b)
	case OpBLTU:
		return ctx.Ult(a, b)
	default:
		return ctx.Uge(a, b)
	}
}

// ALUImm returns the result of a register-immediate ALU micro-op on the
// operand a (rs1). E3: ADDI's result bit 0 is stuck at 0.
func ALUImm(ctx *smt.Context, f faults.Set, op Op, insn, a *smt.Term) *smt.Term {
	imm := riscv.SymImmI(ctx, insn)
	shamt := ctx.ZExt(riscv.FieldShamt(ctx, insn), 32)
	switch op {
	case OpADDI:
		res := ctx.Add(a, imm)
		if f.Has(faults.E3) {
			res = ctx.And(res, ctx.BV(32, 0xfffffffe))
		}
		return res
	case OpSLTI:
		return ctx.ZExt(ctx.BoolToBV(ctx.Slt(a, imm)), 32)
	case OpSLTIU:
		return ctx.ZExt(ctx.BoolToBV(ctx.Ult(a, imm)), 32)
	case OpXORI:
		return ctx.Xor(a, imm)
	case OpORI:
		return ctx.Or(a, imm)
	case OpANDI:
		return ctx.And(a, imm)
	case OpSLLI:
		return ctx.Shl(a, shamt)
	case OpSRLI:
		return ctx.Lshr(a, shamt)
	default:
		return ctx.Ashr(a, shamt)
	}
}

// ALUReg returns the result of a register-register ALU micro-op on the
// operands a (rs1) and b (rs2). E4: SUB's result bit 31 is stuck at 0.
func ALUReg(ctx *smt.Context, f faults.Set, op Op, a, b *smt.Term) *smt.Term {
	shamt := ctx.And(b, ctx.BV(32, 31))
	switch op {
	case OpADD:
		return ctx.Add(a, b)
	case OpSUB:
		res := ctx.Sub(a, b)
		if f.Has(faults.E4) {
			res = ctx.And(res, ctx.BV(32, 0x7fffffff))
		}
		return res
	case OpSLL:
		return ctx.Shl(a, shamt)
	case OpSLT:
		return ctx.ZExt(ctx.BoolToBV(ctx.Slt(a, b)), 32)
	case OpSLTU:
		return ctx.ZExt(ctx.BoolToBV(ctx.Ult(a, b)), 32)
	case OpXOR:
		return ctx.Xor(a, b)
	case OpSRL:
		return ctx.Lshr(a, shamt)
	case OpSRA:
		return ctx.Ashr(a, shamt)
	case OpOR:
		return ctx.Or(a, b)
	default: // OpAND
		return ctx.And(a, b)
	}
}

// AccessSize returns the byte count of a load or store micro-op.
func AccessSize(op Op) uint32 {
	switch op {
	case OpLB, OpLBU, OpSB:
		return 1
	case OpLH, OpLHU, OpSH:
		return 2
	default:
		return 4
	}
}

// ForkLanes resolves the strobe generator, a mux over the low two bits of
// the effective address ea: it forks the exploration across the byte lanes
// before the address is concretized.
func ForkLanes(eng *core.Engine, ea *smt.Term) {
	ctx := eng.Context()
	lane2 := ctx.Extract(ea, 1, 0)
	for i := uint64(0); i < 4; i++ {
		if eng.BranchEq(lane2, ctx.BV(2, i)) {
			return
		}
	}
}

// LoadAddr returns the byte address the load/store unit accesses for the
// concrete effective address addr. E7: LBU flips the byte lane
// (endianness).
func LoadAddr(f faults.Set, op Op, addr uint32) uint32 {
	if op == OpLBU && f.Has(faults.E7) {
		return addr ^ 3
	}
	return addr
}

// LoadValue assembles and extends a load's value from its bytes, b[0]
// least significant. E8: LB misses its sign extension. E9: LW loads only
// the lower half.
func LoadValue(ctx *smt.Context, f faults.Set, op Op, b [4]*smt.Term) *smt.Term {
	switch op {
	case OpLB:
		if f.Has(faults.E8) {
			return ctx.ZExt(b[0], 32)
		}
		return ctx.SExt(b[0], 32)
	case OpLBU:
		return ctx.ZExt(b[0], 32)
	case OpLH:
		return ctx.SExt(ctx.Concat(b[1], b[0]), 32)
	case OpLHU:
		return ctx.ZExt(ctx.Concat(b[1], b[0]), 32)
	default:
		word := ctx.Concat(b[3], ctx.Concat(b[2], ctx.Concat(b[1], b[0])))
		if f.Has(faults.E9) {
			return ctx.ZExt(ctx.Extract(word, 15, 0), 32)
		}
		return word
	}
}
