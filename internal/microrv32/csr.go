package microrv32

import (
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// The CSR surface the RTL core implements (deterministic resolution order).
// Compared with the reference ISS, the core lacks mscratch, mcounteren, the
// whole hpm counter/event files and the unprivileged counter views — the
// source of the "unimpl. CSR" mismatch rows of Table I.
var rtlCSRs = []uint16{
	riscv.CSRMStatus, riscv.CSRMIsa, riscv.CSRMIe, riscv.CSRMTvec,
	riscv.CSRMEpc, riscv.CSRMCause, riscv.CSRMTval,
	riscv.CSRMIdeleg, riscv.CSRMEdeleg, riscv.CSRMIp,
	riscv.CSRMCycle, riscv.CSRMInstret, riscv.CSRMCycleH, riscv.CSRMInstretH,
	riscv.CSRMVendorID, riscv.CSRMArchID, riscv.CSRMImpID, riscv.CSRMHartID,
}

// counterWriteTrapSet lists the CSRs whose writes spuriously trap in the
// shipped core (Table I "Trap at write access" rows).
func counterWriteTrap(addr uint16) bool {
	switch addr {
	case riscv.CSRMIp, riscv.CSRMCycle, riscv.CSRMInstret, riscv.CSRMCycleH, riscv.CSRMInstretH:
		return true
	}
	return false
}

// chooseCSR resolves the symbolic CSR address against the implemented set.
// Unimplemented addresses stay symbolic (known == false): the core treats
// them uniformly, so one path covers the whole class.
func (c *Core) chooseCSR(field *smt.Term) (addr uint16, known bool) {
	for _, a := range rtlCSRs {
		if c.eng.BranchEq(field, c.ctx.BV(12, uint64(a))) {
			return a, true
		}
	}
	return 0, false
}

// csrRead returns the hardware view of an implemented CSR. The cycle and
// instret counters read the core's real cycle-accurate counts — the source
// of the "Cycle Count Mismatch" rows against the ISS's abstract timing.
func (c *Core) csrRead(addr uint16) *smt.Term {
	if v, ok := c.csr[addr]; ok {
		return v
	}
	switch addr {
	case riscv.CSRMIsa:
		return c.bv(riscv.MisaRV32I)
	case riscv.CSRMCycle:
		return c.bv(uint32(c.cycle))
	case riscv.CSRMCycleH:
		return c.bv(uint32(c.cycle >> 32))
	case riscv.CSRMInstret:
		return c.bv(uint32(c.instret))
	case riscv.CSRMInstretH:
		return c.bv(uint32(c.instret >> 32))
	}
	return c.bv(0)
}

// csrWrite commits a CSR write; ok == false demands an illegal-instruction
// trap.
func (c *Core) csrWrite(addr uint16, v *smt.Term) (ok bool) {
	if riscv.CSRReadOnly(addr) {
		// The ID registers: the architecture demands a trap; the shipped
		// core silently ignores the write.
		return c.cfg.NoReadonlyWriteTrap
	}
	if counterWriteTrap(addr) && c.cfg.TrapOnCounterWrite {
		return false // shipped bug: spurious trap on counter/mip writes
	}
	if addr == riscv.CSRMIsa {
		return true // WARL: write ignored
	}
	c.csr[addr] = v
	return true
}

// csrOp executes one Zicsr instruction in the RTL CSR unit.
func (c *Core) csrOp(op rtl.Op, insn, pcPlus4 *smt.Term) {
	ctx := c.ctx

	immForm := op == rtl.OpCSRRWI || op == rtl.OpCSRRSI || op == rtl.OpCSRRCI
	rd := c.chooseReg(riscv.FieldRd(ctx, insn))

	var src *smt.Term
	var wantWrite bool
	switch {
	case immForm:
		src = riscv.SymZimm(ctx, insn)
		if op == rtl.OpCSRRWI {
			wantWrite = true
		} else {
			wantWrite = !c.eng.BranchEq(riscv.FieldRs1(ctx, insn), ctx.BV(5, 0))
		}
	default:
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		src = c.rf.X[rs1]
		wantWrite = op == rtl.OpCSRRW || rs1 != 0
	}
	isRW := op == rtl.OpCSRRW || op == rtl.OpCSRRWI
	wantRead := !isRW || rd != 0

	addr, known := c.chooseCSR(riscv.FieldCSR(ctx, insn))
	if !known {
		if !c.cfg.NoIllegalCSRTrap {
			c.trap(riscv.ExcIllegalInstruction)
			return
		}
		// Shipped bug: unimplemented CSRs read as zero, writes vanish.
		if wantRead {
			c.retireALU(rd, c.bv(0), pcPlus4)
		} else {
			c.retire(pcPlus4, 0, nil, false, 0)
		}
		return
	}

	var old *smt.Term
	if wantRead {
		old = c.csrRead(addr)
	}
	if wantWrite {
		var nv *smt.Term
		switch {
		case isRW:
			nv = src
		case op == rtl.OpCSRRS || op == rtl.OpCSRRSI:
			nv = ctx.Or(old, src)
		default:
			nv = ctx.And(old, ctx.Not(src))
		}
		if !c.csrWrite(addr, nv) {
			c.trap(riscv.ExcIllegalInstruction)
			return
		}
	}
	if wantRead {
		c.retireALU(rd, old, pcPlus4)
	} else {
		c.retire(pcPlus4, 0, nil, false, 0)
	}
}

// ImplementsCSR reports whether the RTL core implements the CSR address.
func ImplementsCSR(addr uint16) bool {
	for _, a := range rtlCSRs {
		if a == addr {
			return true
		}
	}
	return false
}
