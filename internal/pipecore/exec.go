package pipecore

import (
	"symriscv/internal/faults"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// execute runs the EX stage for the instruction currently held there.
// Loads/stores issue their bus request and park in exMem; everything else
// completes in one cycle.
func (c *Core) execute() (dbReq rtl.DBusRequest) {
	ctx := c.ctx
	insn := c.exInsn
	pc := c.bv(c.exPC)
	pcPlus4 := c.bv(c.exPC + 4)
	f := c.cfg.Faults

	done := func(rd int, val, next *smt.Term) {
		w := &wbEntry{pc: c.exPC, insn: insn, nextPC: next}
		if rd != 0 {
			w.rd, w.val = rd, val
		}
		c.complete(w)
	}

	op := c.dec.Decode(c.eng, insn)
	switch op {
	case rtl.OpIllegal:
		c.trap(riscv.ExcIllegalInstruction)

	case rtl.OpLUI:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		done(rd, riscv.SymImmU(ctx, insn), pcPlus4)

	case rtl.OpAUIPC:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		done(rd, ctx.Add(pc, riscv.SymImmU(ctx, insn)), pcPlus4)

	case rtl.OpJAL:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		done(rd, pcPlus4, rtl.JALTarget(ctx, f, insn, pc, pcPlus4))

	case rtl.OpJALR:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		next := ctx.And(ctx.Add(c.srcReg(rs1, faults.E10), riscv.SymImmI(ctx, insn)), c.bv(0xfffffffe))
		done(rd, pcPlus4, next)

	case rtl.OpBEQ, rtl.OpBNE, rtl.OpBLT, rtl.OpBGE, rtl.OpBLTU, rtl.OpBGEU:
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		rs2 := c.chooseReg(riscv.FieldRs2(ctx, insn))
		next := pcPlus4
		if c.eng.Branch(rtl.BranchCond(ctx, f, op, c.srcReg(rs1, faults.E10), c.srcReg(rs2, faults.E11))) {
			next = ctx.Add(pc, riscv.SymImmB(ctx, insn))
		}
		done(0, nil, next)

	case rtl.OpLB, rtl.OpLH, rtl.OpLW, rtl.OpLBU, rtl.OpLHU, rtl.OpSB, rtl.OpSH, rtl.OpSW:
		dbReq = c.startMem(op, insn)

	case rtl.OpADDI, rtl.OpSLTI, rtl.OpSLTIU, rtl.OpXORI, rtl.OpORI, rtl.OpANDI, rtl.OpSLLI, rtl.OpSRLI, rtl.OpSRAI:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		done(rd, rtl.ALUImm(ctx, f, op, insn, c.srcReg(rs1, faults.E10)), pcPlus4)

	case rtl.OpADD, rtl.OpSUB, rtl.OpSLL, rtl.OpSLT, rtl.OpSLTU, rtl.OpXOR, rtl.OpSRL, rtl.OpSRA, rtl.OpOR, rtl.OpAND:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		rs2 := c.chooseReg(riscv.FieldRs2(ctx, insn))
		done(rd, rtl.ALUReg(ctx, f, op, c.srcReg(rs1, faults.E10), c.srcReg(rs2, faults.E11)), pcPlus4)

	case rtl.OpFENCE, rtl.OpWFI:
		done(0, nil, pcPlus4)

	case rtl.OpECALL:
		c.trap(riscv.ExcEnvCallFromM)
	case rtl.OpEBREAK:
		c.trap(riscv.ExcBreakpoint)
	}
	return dbReq
}

// startMem runs the EX address phase of a load/store: alignment check (this
// core always traps on misaligned accesses), lane-select fork, one aligned
// bus transaction.
func (c *Core) startMem(op rtl.Op, insn *smt.Term) rtl.DBusRequest {
	ctx := c.ctx
	isStore := op.IsStore()

	var rd, rs2 int
	rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
	base := c.srcReg(rs1, faults.E10)
	var ea *smt.Term
	if isStore {
		rs2 = c.chooseReg(riscv.FieldRs2(ctx, insn))
		ea = ctx.Add(base, riscv.SymImmS(ctx, insn))
	} else {
		rd = c.chooseReg(riscv.FieldRd(ctx, insn))
		ea = ctx.Add(base, riscv.SymImmI(ctx, insn))
	}

	size := rtl.AccessSize(op)
	if size > 1 {
		cond := ctx.Ne(ctx.And(ea, c.bv(size-1)), c.bv(0))
		if c.eng.Branch(cond) {
			if isStore {
				c.trap(riscv.ExcStoreAddrMisaligned)
			} else {
				c.trap(riscv.ExcLoadAddrMisaligned)
			}
			return rtl.DBusRequest{}
		}
	}

	rtl.ForkLanes(c.eng, ea)
	addr := rtl.LoadAddr(c.cfg.Faults, op, uint32(c.eng.Concretize(ea)))

	m := &memState{op: op, rd: rd, addr: addr, ea: ea}
	lane := addr & 3
	switch size {
	case 1:
		m.strobe = rtl.ByteStrobe(lane)
	case 2:
		m.strobe = rtl.HalfStrobe(lane)
	default:
		m.strobe = rtl.StrobeWord
	}

	req := rtl.DBusRequest{
		Enable:   true,
		Write:    isStore,
		Address:  c.bv(addr &^ 3),
		WrStrobe: m.strobe,
	}
	if isStore {
		val := c.srcReg(rs2, faults.E11)
		if size < 4 {
			m.storeVal = ctx.ZExt(ctx.Extract(val, int(8*size-1), 0), 32)
		} else {
			m.storeVal = val
		}
		// Position the bytes in their lanes.
		lanes := [4]*smt.Term{}
		zero8 := ctx.BV(8, 0)
		for i := uint32(0); i < 4; i++ {
			lanes[i] = zero8
		}
		for i := uint32(0); i < size; i++ {
			lanes[lane+i] = ctx.Extract(val, int(8*i+7), int(8*i))
		}
		req.WriteData = ctx.Concat(lanes[3], ctx.Concat(lanes[2], ctx.Concat(lanes[1], lanes[0])))
	}
	c.exMem = m
	return req
}

// finishMem consumes the bus response and completes the load/store.
func (c *Core) finishMem(word *smt.Term) {
	ctx := c.ctx
	m := c.exMem
	pcPlus4 := c.bv(c.exPC + 4)

	w := &wbEntry{pc: c.exPC, insn: c.exInsn, nextPC: pcPlus4, memAddr: m.ea}
	if m.op.IsStore() {
		w.memWData = m.storeVal
		w.memWMask = uint8(m.strobe)
		c.complete(w)
		return
	}
	w.memRMask = uint8(m.strobe)

	// The lane mux extracts the highest byte first.
	lane := m.addr & 3
	var bytes [4]*smt.Term
	for i := rtl.AccessSize(m.op); i > 0; i-- {
		l := lane + i - 1
		bytes[i-1] = ctx.Extract(word, int(8*l+7), int(8*l))
	}
	val := rtl.LoadValue(ctx, c.cfg.Faults, m.op, bytes)
	if m.rd != 0 {
		w.rd, w.val = m.rd, val
	}
	c.complete(w)
}
