// Package pipecore implements a second device under test: a fetch-overlapped
// pipelined RV32I core in the VexRiscv tradition (the other SpinalHDL
// processor the paper names). It demonstrates that the co-simulation
// methodology is not tied to the multi-cycle MicroRV32 microarchitecture:
// the testbench only sees the same IBus/DBus protocols and an RVFI port,
// while internally the fetch of the next instruction runs under the execute
// of the current one (speculative prefetch), taken branches and traps flush
// the fetch stage, and instructions retire at execute completion with a
// write-through register file.
//
// Scope: RV32I + ECALL/EBREAK/WFI/FENCE. Zicsr and MRET are not implemented
// (they raise illegal-instruction); co-simulation scenarios against the
// full-featured reference ISS must block the SYSTEM opcode, as the Table II
// configuration does anyway.
//
// The injected faults E0–E9 are supported at the same microarchitectural
// points as in the MicroRV32 model, so the error-injection study can be
// replayed against a pipelined implementation: both cores build their decode
// table, register slicing, ALU, branch and load results from the shared
// datapath in internal/rtl, where each of E0–E9 has its one hook site. This
// package holds only the pipeline: control, the bypass-lane operand reads
// and the hooks of E10–E14. E10–E14 target points that
// only exist in a pipelined microarchitecture — the writeback bypass network
// (E10/E11), the wrong-path squash (E12), the redirect target latch (E13)
// and the flush/writeback interaction (E14); all of them are invisible at
// instruction limit 1 and need at least two instructions in flight.
package pipecore

import (
	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// Config selects the core variant.
type Config struct {
	// Faults is the set of injected errors (E0–E14; E10–E14 are the
	// pipeline-specific hazard/forwarding/control series).
	Faults faults.Set
}

// memState is an in-flight EX-stage memory access.
type memState struct {
	op       rtl.Op
	rd       int
	addr     uint32
	ea       *smt.Term
	storeVal *smt.Term // architectural value for RVFI
	strobe   rtl.Strobe
}

// wbEntry carries one instruction's architectural results to retirement.
type wbEntry struct {
	pc     uint32
	insn   *smt.Term
	nextPC *smt.Term
	rd     int
	val    *smt.Term
	trap   bool
	cause  uint32

	memAddr  *smt.Term
	memWData *smt.Term
	memWMask uint8
	memRMask uint8
}

// Core is the pipelined core model.
type Core struct {
	cfg Config
	eng *core.Engine
	ctx *smt.Context
	dec rtl.Decoder
	rf  rtl.RegFile

	pc    uint32 // next fetch address
	cycle uint64
	order uint64

	// IF stage.
	fetchPending bool
	fetchDiscard bool
	fetchPC      uint32
	ifValid      bool
	ifPC         uint32
	ifInsn       *smt.Term

	// EX stage.
	exValid bool
	exPC    uint32
	exInsn  *smt.Term
	exMem   *memState

	// Writeback bypass bookkeeping: the register, pre-write value and cycle
	// of the most recent register writeback. srcReg consults it for the
	// E10/E11 dropped-bypass faults; complete consults it for E14.
	lastWBRd    int
	lastWBOld   *smt.Term
	lastWBCycle uint64

	// Interrupt delivery: the external line, the per-slot sampling guard,
	// and the latched interrupt-control state. The CSR-less core has no CSR
	// file — mstatus and mie exist only as tie-off inputs of the interrupt
	// gate (nil reads as 0, i.e. interrupts disabled).
	irq            rvfi.IrqSource
	irqCheckedSlot uint64
	mstatus        *smt.Term
	mie            *smt.Term

	ret rvfi.Retirement
}

// New returns a core at reset.
func New(eng *core.Engine, cfg Config) *Core {
	c := new(Core)
	c.Reset(eng, cfg)
	return c
}

// DecodeTable returns the core's decode table for the given fault set, in
// walk order: rtl.DecodeTable without the Zicsr and MRET rows.
func DecodeTable(f faults.Set) []rtl.Row { return rtl.DecodeTable(f, false) }

// Reset puts the core into its reset state for a path of eng, reusing its
// storage (the decode table is rebuilt only for a new fault set).
func (c *Core) Reset(eng *core.Engine, cfg Config) {
	ctx := eng.Context()
	dec, rf := c.dec, c.rf
	dec.Reset(ctx, cfg.Faults, false)
	*c = Core{cfg: cfg, eng: eng, ctx: ctx, dec: dec, rf: rf}
	c.rf.Reset(ctx.BV(32, 0))
}

// SetPC sets the reset fetch address.
func (c *Core) SetPC(pc uint32) { c.pc = pc }

// SetIrqSource connects the external interrupt line (testbench hook).
func (c *Core) SetIrqSource(src rvfi.IrqSource) {
	c.irq = src
	c.irqCheckedSlot = ^uint64(0)
}

// SetCSR latches interrupt-control state (testbench hook). The CSR-less
// pipeline core has no CSR file; only mstatus and mie are stored, as the
// tie-off inputs of the interrupt gate — every other address is ignored.
func (c *Core) SetCSR(addr uint16, v *smt.Term) {
	switch addr {
	case riscv.CSRMStatus:
		c.mstatus = v
	case riscv.CSRMIe:
		c.mie = v
	}
}

// csrOr0 reads a latched interrupt-control input, nil meaning hardwired 0.
func (c *Core) csrOr0(t *smt.Term) *smt.Term {
	if t == nil {
		return c.bv(0)
	}
	return t
}

// SetReg initialises a register (testbench hook); x0 writes are ignored.
func (c *Core) SetReg(i int, v *smt.Term) { c.rf.Write(i, v) }

// Reg returns register i.
func (c *Core) Reg(i int) *smt.Term { return c.rf.X[i] }

// Retirement returns the RVFI record (Valid only in the retiring cycle).
func (c *Core) Retirement() *rvfi.Retirement { return &c.ret }

// chooseReg resolves a register field over the sliced register file.
func (c *Core) chooseReg(field *smt.Term) int { return c.rf.Choose(c.eng, field) }

func (c *Core) bv(v uint32) *smt.Term { return c.ctx.BV(32, uint64(v)) }

// Step advances one clock. Stage order within a cycle is EX → handoff → IF;
// an instruction retires in the cycle its execute stage completes, so the
// execution controller sees the retirement before the next instruction can
// enter execute.
func (c *Core) Step(ib rtl.IBusResponse, db rtl.DBusResponse) (ibReq rtl.IBusRequest, dbReq rtl.DBusRequest) {
	c.cycle++
	c.eng.CountCycle(1)
	c.ret.Valid = false

	// --- IF response capture (for the request issued last cycle).
	if c.fetchPending && ib.InstructionReady {
		c.fetchPending = false
		if c.fetchDiscard {
			c.fetchDiscard = false
		} else {
			c.ifValid = true
			c.ifPC = c.fetchPC
			c.ifInsn = ib.Instruction
			c.pc = c.fetchPC + 4
		}
	}

	// --- EX interrupt gate: one opportunity per instruction slot, sampled
	// before the slot's instruction executes — the same architectural point
	// the reference ISS uses. A taken interrupt squashes the not-yet-executed
	// instruction and steers fetch to the hardwired vector (0); the slot's
	// instruction is then the first handler instruction.
	if c.exValid && c.irq != nil && c.irqCheckedSlot != c.order {
		c.irqCheckedSlot = c.order
		line := c.irq.Line(c.order)
		taken := riscv.SymInterruptTaken(c.ctx, line, c.csrOr0(c.mstatus), c.csrOr0(c.mie))
		if c.eng.Branch(taken) {
			c.exValid = false
			c.exMem = nil
			c.redirect(0)
		}
	}

	// --- EX.
	if c.exValid {
		if c.exMem != nil {
			if db.DataReady {
				c.finishMem(db.ReadData)
			}
		} else {
			dbReq = c.execute()
		}
	}

	// --- IF→EX handoff.
	if !c.exValid && c.ifValid {
		c.exValid = true
		c.exPC = c.ifPC
		c.exInsn = c.ifInsn
		c.ifValid = false
	}

	// --- IF request issue (one instruction of prefetch).
	if !c.ifValid && !c.fetchPending {
		ibReq = rtl.IBusRequest{FetchEnable: true, Address: c.bv(c.pc)}
		c.fetchPending = true
		c.fetchPC = c.pc
	}
	return ibReq, dbReq
}

// srcReg reads register i as the EX stage sees it on its read port for the
// given bypass lane (faults.E10 for rs1, faults.E11 for rs2). With the lane's
// dropped-bypass fault injected, a value committed by the writeback on the
// previous cycle has not yet propagated to the read port, so a back-to-back
// consumer reads the stale operand.
func (c *Core) srcReg(i int, lane faults.Fault) *smt.Term {
	if i != 0 && i == c.lastWBRd && c.cycle == c.lastWBCycle+1 && c.cfg.Faults.Has(lane) {
		return c.lastWBOld
	}
	return c.rf.X[i]
}

// redirect flushes the fetch stage and steers it to the target.
func (c *Core) redirect(target uint32) {
	if c.cfg.Faults.Has(faults.E13) {
		target += 4 // E13: redirect target mis-latched
	}
	if c.cfg.Faults.Has(faults.E12) {
		// E12: the wrong-path squash is dropped — the speculatively fetched
		// fall-through instruction stays valid, executes and retires.
		c.pc = target
		return
	}
	c.ifValid = false
	if c.fetchPending {
		c.fetchDiscard = true
	}
	c.pc = target
}

// complete finishes the EX stage instruction: it commits the register write
// (write-through register file), publishes the RVFI retirement, and — when
// the concrete next PC is not the sequential successor — flushes the fetch
// stage.
func (c *Core) complete(w *wbEntry) {
	c.exValid = false
	c.exMem = nil

	if !w.trap && w.rd != 0 {
		c.lastWBRd, c.lastWBOld, c.lastWBCycle = w.rd, c.rf.X[w.rd], c.cycle
		c.rf.Write(w.rd, w.val)
	}
	c.order++
	c.ret = rvfi.Retirement{
		Valid:    true,
		Order:    c.order,
		Insn:     w.insn,
		Trap:     w.trap,
		Cause:    w.cause,
		PCRData:  c.bv(w.pc),
		PCWData:  w.nextPC,
		RdAddr:   w.rd,
		RdWData:  w.val,
		MemAddr:  w.memAddr,
		MemWData: w.memWData,
		MemWMask: w.memWMask,
		MemRMask: w.memRMask,
	}
	if w.trap {
		c.ret.RdAddr = 0
		c.ret.RdWData = nil
	}
	c.eng.CountInstruction(1)

	next := uint32(c.eng.Concretize(w.nextPC))
	if next != w.pc+4 {
		if !w.trap && w.rd != 0 && c.cfg.Faults.Has(faults.E14) {
			// E14: the flush rolls back the retiring instruction's own
			// register writeback (e.g. the link register of a taken JAL).
			// The RVFI record keeps the committed value — the corruption
			// only surfaces through a later read of the register.
			c.rf.X[w.rd] = c.lastWBOld
		}
		c.redirect(next)
	}
}

func (c *Core) trap(cause uint32) {
	// Machine trap vector: this CSR-less core hardwires mtvec to 0.
	c.complete(&wbEntry{
		pc:     c.exPC,
		insn:   c.exInsn,
		nextPC: c.bv(0),
		trap:   true,
		cause:  cause,
	})
}
