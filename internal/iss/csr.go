package iss

import (
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
)

// The VP's implemented CSR surface (deterministic resolution order). The
// hpm counter/event files are matched as ranges so that one exploration path
// covers each whole file — mirroring Table I's "mhpmcounter3-31" rows.
var issScalarCSRs = []uint16{
	riscv.CSRMStatus, riscv.CSRMIsa, riscv.CSRMEdeleg, riscv.CSRMIdeleg,
	riscv.CSRMIe, riscv.CSRMTvec, riscv.CSRMCounteren, riscv.CSRMScratch,
	riscv.CSRMEpc, riscv.CSRMCause, riscv.CSRMTval, riscv.CSRMIp,
	riscv.CSRMCycle, riscv.CSRMInstret, riscv.CSRMCycleH, riscv.CSRMInstretH,
	riscv.CSRCycle, riscv.CSRTime, riscv.CSRInstret,
	riscv.CSRCycleH, riscv.CSRTimeH, riscv.CSRInstretH,
	riscv.CSRMVendorID, riscv.CSRMArchID, riscv.CSRMImpID, riscv.CSRMHartID,
}

type csrRange struct{ lo, hi uint16 }

var issCSRRanges = []csrRange{
	{riscv.CSRMHpmCounterBase + 3, riscv.CSRMHpmCounterBase + 31},
	{riscv.CSRMHpmCounterHBase + 3, riscv.CSRMHpmCounterHBase + 31},
	{riscv.CSRMHpmEventBase + 3, riscv.CSRMHpmEventBase + 31},
}

// chooseCSR resolves the symbolic 12-bit CSR address field against the
// implemented set, forking per implemented CSR (or CSR file range). Unknown
// addresses stay symbolic (known == false): the ISS treats them uniformly
// (illegal-instruction trap), so one path covers the whole class.
func (s *ISS) chooseCSR(field *smt.Term) (addr uint16, known bool) {
	ctx := s.ctx
	for _, a := range issScalarCSRs {
		if s.eng.BranchEq(field, ctx.BV(12, uint64(a))) {
			return a, true
		}
	}
	for _, rng := range issCSRRanges {
		in := ctx.BAnd(
			ctx.Uge(field, ctx.BV(12, uint64(rng.lo))),
			ctx.Ule(field, ctx.BV(12, uint64(rng.hi))),
		)
		if s.eng.Branch(in) {
			return uint16(s.eng.Concretize(field)), true
		}
	}
	return 0, false
}

// counter returns the ISS's abstract timing view of a cycle/instret-class
// counter: the VP has no cycle-accurate model, so every counter advances one
// per instruction, counting the current instruction as executed.
func (s *ISS) counter() *smt.Term { return s.bv(uint32(s.instret + 1)) }

// csrRead returns the CSR value, or ok == false when the access must raise
// an illegal-instruction exception (including the VP's mideleg/medeleg
// read-trap bugs).
func (s *ISS) csrRead(addr uint16) (v *smt.Term, ok bool) {
	switch addr {
	case riscv.CSRMIdeleg:
		if s.cfg.MidelegReadTrap {
			return nil, false
		}
	case riscv.CSRMEdeleg:
		if s.cfg.MedelegReadTrap {
			return nil, false
		}
	case riscv.CSRMIsa:
		return s.bv(riscv.MisaRV32I), true
	case riscv.CSRMCycle, riscv.CSRCycle, riscv.CSRTime, riscv.CSRMInstret, riscv.CSRInstret:
		if w, stored := s.csr[addr]; stored {
			return w, true
		}
		return s.counter(), true
	}
	return s.csrStored(addr), true
}

// csrWrite stores the value, or reports ok == false for architecturally
// read-only CSRs (whose write must raise illegal-instruction).
func (s *ISS) csrWrite(addr uint16, v *smt.Term) (ok bool) {
	if riscv.CSRReadOnly(addr) {
		return false
	}
	s.csr[addr] = v
	return true
}

// csrOp executes one Zicsr instruction.
func (s *ISS) csrOp(r *Result, insn *smt.Term) {
	ctx := s.ctx

	type csrClass uint8
	const (
		clRW csrClass = iota
		clRS
		clRC
	)
	var class csrClass
	var immForm bool
	switch {
	case s.match(insn, 0x707f, uint32(riscv.F3CSRRW)<<12|riscv.OpSystem):
		class = clRW
	case s.match(insn, 0x707f, uint32(riscv.F3CSRRS)<<12|riscv.OpSystem):
		class = clRS
	case s.match(insn, 0x707f, uint32(riscv.F3CSRRC)<<12|riscv.OpSystem):
		class = clRC
	case s.match(insn, 0x707f, uint32(riscv.F3CSRRWI)<<12|riscv.OpSystem):
		class, immForm = clRW, true
	case s.match(insn, 0x707f, uint32(riscv.F3CSRRSI)<<12|riscv.OpSystem):
		class, immForm = clRS, true
	case s.match(insn, 0x707f, uint32(riscv.F3CSRRCI)<<12|riscv.OpSystem):
		class, immForm = clRC, true
	default:
		s.trap(r, riscv.ExcIllegalInstruction, insn)
		return
	}

	rd := s.chooseReg(riscv.FieldRd(ctx, insn))

	var src *smt.Term
	var wantWrite bool
	if immForm {
		src = riscv.SymZimm(ctx, insn)
		if class == clRW {
			wantWrite = true
		} else {
			// CSRRSI/CSRRCI write unless the immediate is zero.
			wantWrite = !s.eng.BranchEq(riscv.FieldRs1(ctx, insn), ctx.BV(5, 0))
		}
	} else {
		rs1 := s.chooseReg(riscv.FieldRs1(ctx, insn))
		src = s.regs[rs1]
		// CSRRS/CSRRC write unless rs1 is the x0 *index*.
		wantWrite = class == clRW || rs1 != 0
	}
	wantRead := class != clRW || rd != 0

	addr, known := s.chooseCSR(riscv.FieldCSR(ctx, insn))
	if !known {
		s.trap(r, riscv.ExcIllegalInstruction, insn)
		return
	}

	var old *smt.Term
	if wantRead {
		var ok bool
		old, ok = s.csrRead(addr)
		if !ok {
			s.trap(r, riscv.ExcIllegalInstruction, insn)
			return
		}
	}
	if wantWrite {
		var nv *smt.Term
		switch class {
		case clRW:
			nv = src
		case clRS:
			nv = ctx.Or(old, src)
		case clRC:
			nv = ctx.And(old, ctx.Not(src))
		}
		if !s.csrWrite(addr, nv) {
			s.trap(r, riscv.ExcIllegalInstruction, insn)
			return
		}
	}
	if wantRead {
		s.setRd(r, rd, old)
	}
}

// ImplementsCSR reports whether the VP-style ISS implements the CSR address
// (scalar set plus the hpm counter/event files).
func ImplementsCSR(addr uint16) bool {
	for _, a := range issScalarCSRs {
		if a == addr {
			return true
		}
	}
	for _, rng := range issCSRRanges {
		if addr >= rng.lo && addr <= rng.hi {
			return true
		}
	}
	return false
}
