package microrv32

import (
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// startMem executes the address phase of a load/store: effective-address
// computation, the (configurable) alignment check, transaction planning —
// one aligned bus word, or two when the core's full misaligned support has
// to split the access — and the first bus request.
func (c *Core) startMem(op rtl.Op, insn *smt.Term) rtl.DBusRequest {
	ctx := c.ctx
	isStore := op.IsStore()

	var rd, rs2 int
	rs1 := 0
	if isStore {
		rs1 = c.chooseReg(riscv.FieldRs1(ctx, insn))
		rs2 = c.chooseReg(riscv.FieldRs2(ctx, insn))
	} else {
		rd = c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 = c.chooseReg(riscv.FieldRs1(ctx, insn))
	}

	var ea *smt.Term
	if isStore {
		ea = ctx.Add(c.rf.X[rs1], riscv.SymImmS(ctx, insn))
	} else {
		ea = ctx.Add(c.rf.X[rs1], riscv.SymImmI(ctx, insn))
	}

	size := rtl.AccessSize(op)
	if !c.cfg.NoMisalignedCheck && size > 1 {
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

	// Forking the byte lanes (and, with misaligned support, the
	// aligned/misaligned classes) before the address is concretized is what
	// lets the voter reach the misaligned paths where the reference ISS
	// traps.
	rtl.ForkLanes(c.eng, ea)
	addr := rtl.LoadAddr(c.cfg.Faults, op, uint32(c.eng.Concretize(ea)))

	plan := memPlan{op: op, isStore: isStore, rd: rd, addr: addr, ea: ea}

	base := addr &^ 3
	span := addr&3 + size
	plan.nreq = 1
	if span > 4 {
		plan.nreq = 2
	}
	plan.reqAddr[0] = base
	plan.reqAddr[1] = base + 4

	if isStore {
		val := c.rf.X[rs2]
		if size < 4 {
			plan.storeVal = ctx.ZExt(ctx.Extract(val, int(8*size-1), 0), 32)
		} else {
			plan.storeVal = val
		}
		var words [2][4]*smt.Term
		var strobes [2]rtl.Strobe
		for i := uint32(0); i < size; i++ {
			g := addr + i
			w := (g - base) / 4
			lane := g & 3
			words[w][lane] = ctx.Extract(val, int(8*i+7), int(8*i))
			strobes[w] |= rtl.Strobe(1) << lane
		}
		zero8 := ctx.BV(8, 0)
		for w := 0; w < plan.nreq; w++ {
			lanes := words[w]
			for l := range lanes {
				if lanes[l] == nil {
					lanes[l] = zero8
				}
			}
			word := ctx.Concat(lanes[3], ctx.Concat(lanes[2], ctx.Concat(lanes[1], lanes[0])))
			plan.reqData[w] = word
			plan.reqStrobe[w] = strobes[w]
		}
	} else {
		var strobes [2]rtl.Strobe
		for i := uint32(0); i < size; i++ {
			g := addr + i
			strobes[(g-base)/4] |= rtl.Strobe(1) << (g & 3)
		}
		plan.reqStrobe[0] = strobes[0]
		plan.reqStrobe[1] = strobes[1]
	}

	c.mem = plan
	c.state = stMem
	return c.memRequest(0)
}

// memRequest builds the bus request for transaction phase i.
func (c *Core) memRequest(i int) rtl.DBusRequest {
	return rtl.DBusRequest{
		Enable:    true,
		Write:     c.mem.isStore,
		Address:   c.bv(c.mem.reqAddr[i]),
		WrStrobe:  c.mem.reqStrobe[i],
		WriteData: c.mem.reqData[i],
	}
}

// finishMem runs after the last bus response: loads assemble and extend
// their value (rtl.LoadValue), then the instruction retires.
func (c *Core) finishMem() {
	ctx := c.ctx
	pcPlus4 := c.bv(c.pc + 4)
	m := &c.mem

	if m.isStore {
		c.retire(pcPlus4, 0, nil, false, 0)
		return
	}

	size := rtl.AccessSize(m.op)
	base := m.addr &^ 3
	var bytes [4]*smt.Term
	for i := uint32(0); i < size; i++ {
		g := m.addr + i
		w := (g - base) / 4
		lane := g & 3
		bytes[i] = ctx.Extract(m.words[w], int(8*lane+7), int(8*lane))
	}
	val := rtl.LoadValue(ctx, c.cfg.Faults, m.op, bytes)
	c.retireALU(m.rd, val, pcPlus4)
}
