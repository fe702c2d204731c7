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

	// EnableM adds the RV32M multiply/divide extension (off by default: the
	// paper's case study targets RV32I+Zicsr).
	EnableM bool

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
	op      opKind
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

	table  []decodeEntry
	consts []*smt.Term // row i's mask and match terms at 2i, 2i+1; nil until first use

	pc          uint32
	regs        [32]*smt.Term
	interesting []int

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

// Reset puts the core into its reset state for a path of eng, reusing its
// storage. It rebuilds the decode table only for a new fault set or M switch,
// and drops the table's terms when eng's term context is not theirs.
func (c *Core) Reset(eng *core.Engine, cfg Config) {
	ctx := eng.Context()
	table, consts, csr := c.table, c.consts, c.csr
	if table == nil || cfg.Faults != c.cfg.Faults || cfg.EnableM != c.cfg.EnableM {
		table = buildDecodeTable(cfg.Faults, cfg.EnableM)
		consts = make([]*smt.Term, 2*len(table))
	} else if ctx != c.ctx {
		clear(consts)
	}
	if csr == nil {
		csr = make(map[uint16]*smt.Term)
	}
	clear(csr)
	*c = Core{cfg: cfg, eng: eng, ctx: ctx, table: table, consts: consts, csr: csr,
		interesting: append(c.interesting[:0], 0)}
	zero := ctx.BV(32, 0)
	for i := range c.regs {
		c.regs[i] = zero
	}
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
func (c *Core) SetReg(i int, v *smt.Term) {
	if i == 0 {
		return
	}
	c.regs[i] = v
	c.markInteresting(i)
}

// Reg returns the current value of register i.
func (c *Core) Reg(i int) *smt.Term { return c.regs[i] }

// CSR returns the architectural storage term of the given CSR, or nil when
// the CSR has never been initialised or written. It exists for analysis
// tooling (dutlint collects CSR next-state roots); the core itself reads CSRs
// through csrStored, which substitutes the architectural reset value.
func (c *Core) CSR(addr uint16) *smt.Term { return c.csr[addr] }

// Cycles returns the clock-cycle count since reset.
func (c *Core) Cycles() uint64 { return c.cycle }

// Instret returns the retired-instruction count.
func (c *Core) Instret() uint64 { return c.instret }

// Retirement returns the RVFI record; Valid is set only during the Step in
// which an instruction retired.
func (c *Core) Retirement() *rvfi.Retirement { return &c.ret }

func (c *Core) markInteresting(i int) {
	for p, x := range c.interesting {
		if x == i {
			return
		}
		if x > i {
			c.interesting = append(c.interesting, 0)
			copy(c.interesting[p+1:], c.interesting[p:])
			c.interesting[p] = i
			return
		}
	}
	c.interesting = append(c.interesting, i)
}

func (c *Core) writeReg(i int, v *smt.Term) {
	if i == 0 {
		return
	}
	c.regs[i] = v
	c.markInteresting(i)
}

func (c *Core) chooseReg(field *smt.Term) int {
	for _, i := range c.interesting {
		if c.eng.BranchEq(field, c.ctx.BV(5, uint64(i))) {
			return i
		}
	}
	return int(c.eng.Concretize(field))
}

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

	op := c.decode(insn)
	f := c.cfg.Faults

	switch op {
	case opIllegal:
		c.trap(riscv.ExcIllegalInstruction)

	case opLUI:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		c.retireALU(rd, riscv.SymImmU(ctx, insn), pcPlus4)

	case opAUIPC:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		c.retireALU(rd, ctx.Add(pc, riscv.SymImmU(ctx, insn)), pcPlus4)

	case opJAL:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		next := ctx.Add(pc, riscv.SymImmJ(ctx, insn))
		if f.Has(faults.E5) {
			next = pcPlus4 // E5: JAL fails to change the PC
		}
		c.retireALU(rd, pcPlus4, next)

	case opJALR:
		rd := c.chooseReg(riscv.FieldRd(ctx, insn))
		rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
		next := ctx.And(ctx.Add(c.regs[rs1], riscv.SymImmI(ctx, insn)), c.bv(0xfffffffe))
		c.retireALU(rd, pcPlus4, next)

	case opBEQ, opBNE, opBLT, opBGE, opBLTU, opBGEU:
		c.branch(op, insn, pc, pcPlus4)

	case opLB, opLH, opLW, opLBU, opLHU, opSB, opSH, opSW:
		dbReq = c.startMem(op, insn)

	case opADDI, opSLTI, opSLTIU, opXORI, opORI, opANDI, opSLLI, opSRLI, opSRAI:
		c.aluImm(op, insn, pcPlus4)

	case opADD, opSUB, opSLL, opSLT, opSLTU, opXOR, opSRL, opSRA, opOR, opAND,
		opMUL, opMULH, opMULHSU, opMULHU, opDIV, opDIVU, opREM, opREMU:
		c.aluReg(op, insn, pcPlus4)

	case opFENCE:
		c.retire(pcPlus4, 0, nil, false, 0)

	case opECALL:
		c.trap(riscv.ExcEnvCallFromM)

	case opEBREAK:
		c.trap(riscv.ExcBreakpoint)

	case opWFI:
		if c.cfg.NoWFI {
			// Shipped bug: WFI is not implemented and traps.
			c.trap(riscv.ExcIllegalInstruction)
		} else {
			c.retire(pcPlus4, 0, nil, false, 0)
		}

	case opMRET:
		c.retire(c.csrStored(riscv.CSRMEpc), 0, nil, false, 0)

	case opCSRRW, opCSRRS, opCSRRC, opCSRRWI, opCSRRSI, opCSRRCI:
		c.csrOp(op, insn, pcPlus4)

	default:
		c.trap(riscv.ExcIllegalInstruction)
	}
	return dbReq
}

func (c *Core) retireALU(rd int, val, next *smt.Term) {
	c.writeReg(rd, val)
	if rd == 0 {
		c.retire(next, 0, nil, false, 0)
	} else {
		c.retire(next, rd, val, false, 0)
	}
}

func (c *Core) branch(op opKind, insn, pc, pcPlus4 *smt.Term) {
	ctx := c.ctx
	rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
	rs2 := c.chooseReg(riscv.FieldRs2(ctx, insn))
	a, b := c.regs[rs1], c.regs[rs2]

	var cond *smt.Term
	switch op {
	case opBEQ:
		cond = ctx.Eq(a, b)
	case opBNE:
		if c.cfg.Faults.Has(faults.E6) {
			cond = ctx.Eq(a, b) // E6: BNE behaves like BEQ
		} else {
			cond = ctx.Ne(a, b)
		}
	case opBLT:
		cond = ctx.Slt(a, b)
	case opBGE:
		cond = ctx.Sge(a, b)
	case opBLTU:
		cond = ctx.Ult(a, b)
	case opBGEU:
		cond = ctx.Uge(a, b)
	}
	next := pcPlus4
	if c.eng.Branch(cond) {
		next = ctx.Add(pc, riscv.SymImmB(ctx, insn))
	}
	c.retire(next, 0, nil, false, 0)
}

func (c *Core) aluImm(op opKind, insn, pcPlus4 *smt.Term) {
	ctx := c.ctx
	rd := c.chooseReg(riscv.FieldRd(ctx, insn))
	rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
	a := c.regs[rs1]
	imm := riscv.SymImmI(ctx, insn)
	shamt := ctx.ZExt(riscv.FieldShamt(ctx, insn), 32)
	f := c.cfg.Faults

	var res *smt.Term
	switch op {
	case opADDI:
		res = ctx.Add(a, imm)
		if f.Has(faults.E3) {
			res = ctx.And(res, c.bv(0xfffffffe)) // E3: result bit 0 stuck at 0
		}
	case opSLTI:
		res = ctx.ZExt(ctx.BoolToBV(ctx.Slt(a, imm)), 32)
	case opSLTIU:
		res = ctx.ZExt(ctx.BoolToBV(ctx.Ult(a, imm)), 32)
	case opXORI:
		res = ctx.Xor(a, imm)
	case opORI:
		res = ctx.Or(a, imm)
	case opANDI:
		res = ctx.And(a, imm)
	case opSLLI:
		res = ctx.Shl(a, shamt)
	case opSRLI:
		res = ctx.Lshr(a, shamt)
	case opSRAI:
		res = ctx.Ashr(a, shamt)
	}
	c.retireALU(rd, res, pcPlus4)
}

func (c *Core) aluReg(op opKind, insn, pcPlus4 *smt.Term) {
	ctx := c.ctx
	rd := c.chooseReg(riscv.FieldRd(ctx, insn))
	rs1 := c.chooseReg(riscv.FieldRs1(ctx, insn))
	rs2 := c.chooseReg(riscv.FieldRs2(ctx, insn))
	a, b := c.regs[rs1], c.regs[rs2]
	shamt := ctx.And(b, c.bv(31))
	f := c.cfg.Faults

	var res *smt.Term
	switch op {
	case opADD:
		res = ctx.Add(a, b)
	case opSUB:
		res = ctx.Sub(a, b)
		if f.Has(faults.E4) {
			res = ctx.And(res, c.bv(0x7fffffff)) // E4: result bit 31 stuck at 0
		}
	case opSLL:
		res = ctx.Shl(a, shamt)
	case opSLT:
		res = ctx.ZExt(ctx.BoolToBV(ctx.Slt(a, b)), 32)
	case opSLTU:
		res = ctx.ZExt(ctx.BoolToBV(ctx.Ult(a, b)), 32)
	case opXOR:
		res = ctx.Xor(a, b)
	case opSRL:
		res = ctx.Lshr(a, shamt)
	case opSRA:
		res = ctx.Ashr(a, shamt)
	case opOR:
		res = ctx.Or(a, b)
	case opAND:
		res = ctx.And(a, b)
	case opMUL:
		res = riscv.SymMul(ctx, a, b)
	case opMULH:
		res = riscv.SymMulH(ctx, a, b)
	case opMULHSU:
		res = riscv.SymMulHSU(ctx, a, b)
	case opMULHU:
		res = riscv.SymMulHU(ctx, a, b)
	case opDIV:
		res = riscv.SymDiv(ctx, a, b)
	case opDIVU:
		res = riscv.SymDivU(ctx, a, b)
	case opREM:
		res = riscv.SymRem(ctx, a, b)
	case opREMU:
		res = riscv.SymRemU(ctx, a, b)
	}
	c.retireALU(rd, res, pcPlus4)
}
