// Package microrv32 models the Device Under Test: a MicroRV32-style
// RV32I + Zicsr processor as a cycle-level, bus-accurate FSM — the Go
// equivalent of the verilated SpinalHDL core the paper co-simulates. The
// model exposes exactly what the verification method observes: the IBus
// fetch handshake, the strobe-based DBus, and an RVFI retirement port.
//
// Two behaviour dimensions are configurable:
//
//   - the shipped-bug set of the real MicroRV32 found in Table I (missing
//     WFI, missing illegal-CSR traps, missing read-only-CSR write traps,
//     spurious traps on counter writes, full misaligned access support where
//     the reference ISS traps), and
//   - the injected faults E0–E9 of the paper's §V-B performance evaluation.
//
// The combinational datapath — decode table, sliced register file, ALU,
// branch and load results — is internal/rtl's, shared with pipecore; each
// of E0–E9 has its one hook site there. This package holds the FSM
// control, misaligned-access splitting, the CSR unit and the shipped bugs.
package microrv32

import (
	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// Config selects the core behaviour variant.
type Config struct {
	// NoMisalignedCheck makes the core fully support misaligned loads and
	// stores (splitting them into multiple bus transactions) instead of
	// trapping — the shipped MicroRV32 behaviour that mismatches the VP.
	NoMisalignedCheck bool
	// NoWFI makes WFI raise an illegal-instruction trap (shipped bug).
	NoWFI bool
	// NoIllegalCSRTrap makes accesses to unimplemented CSRs read zero and
	// ignore writes instead of trapping (shipped bug).
	NoIllegalCSRTrap bool
	// NoReadonlyWriteTrap makes writes to the read-only ID registers
	// (mvendorid, marchid, mhartid, mimpid) be silently ignored (shipped bug).
	NoReadonlyWriteTrap bool
	// TrapOnCounterWrite makes writes to mip, mcycle, minstret, mcycleh and
	// minstreth raise a trap (shipped bug).
	TrapOnCounterWrite bool

	// IgnoreMIEBug injects an interrupt-logic fault: the core takes machine
	// external interrupts even when mstatus.MIE is clear (extension study).
	IgnoreMIEBug bool

	// Faults is the set of injected errors (E0–E9).
	Faults faults.Set
}

// ShippedConfig reproduces the as-shipped MicroRV32 with the Table I bugs.
func ShippedConfig() Config {
	return Config{
		NoMisalignedCheck:   true,
		NoWFI:               true,
		NoIllegalCSRTrap:    true,
		NoReadonlyWriteTrap: true,
		TrapOnCounterWrite:  true,
	}
}

// FixedConfig is the repaired, ISS-matched core used as the clean baseline
// of the error-injection experiments (Table II).
func FixedConfig() Config { return Config{} }

type fsmState uint8

const (
	stFetch fsmState = iota
	stFetchWait
	stExec
	stMem
)

// memPlan describes an in-flight load/store, possibly split over two bus
// transactions (misaligned support).
type memPlan struct {
	op      rtl.Op
	isStore bool
	rd      int
	addr    uint32 // effective byte address (lane-adjusted under E7)

	reqAddr   [2]uint32
	reqStrobe [2]rtl.Strobe
	reqData   [2]*smt.Term
	nreq      int
	phase     int

	words    [2]*smt.Term // response words
	ea       *smt.Term    // architectural effective address (for RVFI)
	storeVal *smt.Term    // architectural store value, LSB-aligned (for RVFI)
}

// Core is the RTL core model.
type Core struct {
	cfg Config
	eng *core.Engine
	ctx *smt.Context

	dec rtl.Decoder
	rf  rtl.RegFile

	pc uint32

	csr     map[uint16]*smt.Term
	cycle   uint64
	instret uint64
	order   uint64

	state fsmState
	insn  *smt.Term
	mem   memPlan

	irq            IrqSource
	irqCheckedSlot uint64

	ret rvfi.Retirement
}

// IrqSource supplies the (symbolic) machine-external-interrupt line, one
// 1-bit term per instruction slot (the canonical contract lives in rvfi).
type IrqSource = rvfi.IrqSource

// New returns a core at reset (PC 0, registers zero).
func New(eng *core.Engine, cfg Config) *Core {
	c := new(Core)
	c.Reset(eng, cfg)
	return c
}

// DecodeTable returns the core's decode table for the given fault set, in
// walk order: the RV32I, Zicsr and MRET rows of rtl.DecodeTable.
func DecodeTable(f faults.Set) []rtl.Row { return rtl.DecodeTable(f, true) }

// Reset puts the core into its reset state for a path of eng, reusing its
// storage (the decode table is rebuilt only for a new fault set).
func (c *Core) Reset(eng *core.Engine, cfg Config) {
	ctx := eng.Context()
	dec, rf, csr := c.dec, c.rf, c.csr
	dec.Reset(ctx, cfg.Faults, true)
	if csr == nil {
		csr = make(map[uint16]*smt.Term)
	}
	clear(csr)
	*c = Core{cfg: cfg, eng: eng, ctx: ctx, dec: dec, rf: rf, csr: csr}
	c.rf.Reset(ctx.BV(32, 0))
}

// SetPC sets the reset program counter.
func (c *Core) SetPC(pc uint32) { c.pc = pc }

// SetIrqSource connects the external interrupt line (testbench hook).
func (c *Core) SetIrqSource(src IrqSource) {
	c.irq = src
	c.irqCheckedSlot = ^uint64(0)
}

// SetCSR initialises a CSR's storage (testbench hook for symbolic initial
// machine state).
func (c *Core) SetCSR(addr uint16, v *smt.Term) { c.csr[addr] = v }

// SetReg initialises register i (testbench hook for the sliced symbolic
// registers). Writes to x0 are ignored.
func (c *Core) SetReg(i int, v *smt.Term) { c.rf.Write(i, v) }

// Reg returns the current value of register i.
func (c *Core) Reg(i int) *smt.Term { return c.rf.X[i] }

// CSR returns the architectural storage term of the given CSR, or nil when
// the CSR has never been initialised or written. It exists for analysis
// tooling (dutlint collects CSR next-state roots); the core itself reads CSRs
// through csrStored, which substitutes the architectural reset value.
func (c *Core) CSR(addr uint16) *smt.Term { return c.csr[addr] }

// Retirement returns the RVFI record; Valid is set only during the Step in
// which an instruction retired.
func (c *Core) Retirement() *rvfi.Retirement { return &c.ret }

func (c *Core) bv(v uint32) *smt.Term { return c.ctx.BV(32, uint64(v)) }

// Step advances the core by one clock cycle. Bus responses produced by the
// memory for the previous cycle's requests arrive via ib/db; the returned
// requests become visible to the memory in this cycle.
func (c *Core) Step(ib rtl.IBusResponse, db rtl.DBusResponse) (ibReq rtl.IBusRequest, dbReq rtl.DBusRequest) {
	c.cycle++
	c.eng.CountCycle(1)
	c.ret.Valid = false

	switch c.state {
	case stFetch:
		// One interrupt opportunity per instruction slot, sampled before the
		// fetch — the architectural point where both models agree to look.
		if c.irq != nil && c.irqCheckedSlot != c.order {
			c.irqCheckedSlot = c.order
			line := c.irq.Line(c.order)
			var taken *smt.Term
			if c.cfg.IgnoreMIEBug {
				// Fault: the global MIE gate is missing from the condition.
				meie := c.ctx.Eq(c.ctx.Extract(c.csrStored(riscv.CSRMIe), 11, 11), c.ctx.BV(1, 1))
				taken = c.ctx.BAnd(c.ctx.Eq(line, c.ctx.BV(1, 1)), meie)
			} else {
				taken = riscv.SymInterruptTaken(c.ctx, line, c.csrStored(riscv.CSRMStatus), c.csrStored(riscv.CSRMIe))
			}
			if c.eng.Branch(taken) {
				c.csr[riscv.CSRMEpc] = c.bv(c.pc)
				c.csr[riscv.CSRMCause] = c.bv(riscv.CauseMachineExternalIRQ)
				c.pc = uint32(c.eng.Concretize(c.csrStored(riscv.CSRMTvec)))
			}
		}
		ibReq = rtl.IBusRequest{FetchEnable: true, Address: c.bv(c.pc)}
		c.state = stFetchWait

	case stFetchWait:
		if ib.InstructionReady {
			c.insn = ib.Instruction
			c.state = stExec
		} else {
			// Keep the request asserted until the memory answers.
			ibReq = rtl.IBusRequest{FetchEnable: true, Address: c.bv(c.pc)}
		}

	case stExec:
		dbReq = c.execute()

	case stMem:
		if db.DataReady {
			c.mem.words[c.mem.phase] = db.ReadData
			c.mem.phase++
			if c.mem.phase < c.mem.nreq {
				dbReq = c.memRequest(c.mem.phase)
			} else {
				c.finishMem()
			}
		}
	}
	return ibReq, dbReq
}

// retire publishes the RVFI record and moves to the next fetch.
func (c *Core) retire(nextPC *smt.Term, rdAddr int, rdVal *smt.Term, trap bool, cause uint32) {
	c.order++
	c.ret = rvfi.Retirement{
		Valid:   true,
		Order:   c.order,
		Insn:    c.insn,
		Trap:    trap,
		Cause:   cause,
		PCRData: c.bv(c.pc),
		PCWData: nextPC,
		RdAddr:  rdAddr,
		RdWData: rdVal,
	}
	if c.mem.ea != nil {
		c.ret.MemAddr = c.mem.ea
		if c.mem.isStore {
			c.ret.MemWData = c.mem.storeVal
			c.ret.MemWMask = uint8(c.mem.reqStrobe[0])
		} else {
			c.ret.MemRMask = uint8(c.mem.reqStrobe[0])
		}
	}
	if !trap {
		c.instret++
	}
	// The next PC is concrete on this path (control state must be concrete).
	c.pc = uint32(c.eng.Concretize(nextPC))
	c.insn = nil
	c.mem = memPlan{}
	c.state = stFetch
	c.eng.CountInstruction(1)
}

func (c *Core) trap(cause uint32) {
	c.csr[riscv.CSRMEpc] = c.bv(c.pc)
	c.csr[riscv.CSRMCause] = c.bv(cause)
	c.retire(c.csrStored(riscv.CSRMTvec), 0, nil, true, cause)
}

func (c *Core) csrStored(addr uint16) *smt.Term {
	if v, ok := c.csr[addr]; ok {
		return v
	}
	return c.bv(0)
}

// execute decodes and executes the latched instruction; loads/stores issue
// their first bus request and park in stMem.
func (c *Core) execute() (dbReq rtl.DBusRequest) {
	ctx := c.ctx
	insn := c.insn
	pc := c.bv(c.pc)
	pcPlus4 := c.bv(c.pc + 4)

	op := c.dec.Decode(c.eng, insn)
	f := c.cfg.Faults

	switch op {
	case rtl.OpIllegal:
		c.trap(riscv.ExcIllegalInstruction)

	case rtl.OpLUI:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		c.retireALU(rd, riscv.SymImmU(ctx, insn), pcPlus4)

	case rtl.OpAUIPC:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		c.retireALU(rd, ctx.Add(pc, riscv.SymImmU(ctx, insn)), pcPlus4)

	case rtl.OpJAL:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		c.retireALU(rd, pcPlus4, rtl.JALTarget(ctx, f, insn, pc, pcPlus4))

	case rtl.OpJALR:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		next := ctx.And(ctx.Add(c.rf.X[rs1], riscv.SymImmI(ctx, insn)), c.bv(0xfffffffe))
		c.retireALU(rd, pcPlus4, next)

	case rtl.OpBEQ, rtl.OpBNE, rtl.OpBLT, rtl.OpBGE, rtl.OpBLTU, rtl.OpBGEU:
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		rs2 := c.chooseReg(riscv.FieldRs2(ctx, insn))
		next := pcPlus4
		if c.eng.Branch(rtl.BranchCond(ctx, f, op, c.rf.X[rs1], c.rf.X[rs2])) {
			next = ctx.Add(pc, riscv.SymImmB(ctx, insn))
		}
		c.retire(next, 0, nil, false, 0)

	case rtl.OpLB, rtl.OpLH, rtl.OpLW, rtl.OpLBU, rtl.OpLHU, rtl.OpSB, rtl.OpSH, rtl.OpSW:
		dbReq = c.startMem(op, insn)

	case rtl.OpADDI, rtl.OpSLTI, rtl.OpSLTIU, rtl.OpXORI, rtl.OpORI, rtl.OpANDI, rtl.OpSLLI, rtl.OpSRLI, rtl.OpSRAI:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		c.retireALU(rd, rtl.ALUImm(ctx, f, op, insn, c.rf.X[rs1]), pcPlus4)

	case rtl.OpADD, rtl.OpSUB, rtl.OpSLL, rtl.OpSLT, rtl.OpSLTU, rtl.OpXOR, rtl.OpSRL, rtl.OpSRA, rtl.OpOR, rtl.OpAND:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		rs2 := c.chooseReg(riscv.FieldRs2(ctx, insn))
		c.retireALU(rd, rtl.ALUReg(ctx, f, op, c.rf.X[rs1], c.rf.X[rs2]), pcPlus4)

	case rtl.OpFENCE:
		c.retire(pcPlus4, 0, nil, false, 0)

	case rtl.OpECALL:
		c.trap(riscv.ExcEnvCallFromM)

	case rtl.OpEBREAK:
		c.trap(riscv.ExcBreakpoint)

	case rtl.OpWFI:
		if c.cfg.NoWFI {
			// Shipped bug: WFI is not implemented and traps.
			c.trap(riscv.ExcIllegalInstruction)
		} else {
			c.retire(pcPlus4, 0, nil, false, 0)
		}

	case rtl.OpMRET:
		c.retire(c.csrStored(riscv.CSRMEpc), 0, nil, false, 0)

	case rtl.OpCSRRW, rtl.OpCSRRS, rtl.OpCSRRC, rtl.OpCSRRWI, rtl.OpCSRRSI, rtl.OpCSRRCI:
		c.csrOp(op, insn, pcPlus4)

	default:
		c.trap(riscv.ExcIllegalInstruction)
	}
	return dbReq
}

// chooseReg resolves a register field over the sliced register file.
func (c *Core) chooseReg(field *smt.Term) int { return c.rf.Choose(c.eng, field) }

func (c *Core) retireALU(rd int, val, next *smt.Term) {
	c.rf.Write(rd, val)
	if rd == 0 {
		c.retire(next, 0, nil, false, 0)
	} else {
		c.retire(next, rd, val, false, 0)
	}
}
