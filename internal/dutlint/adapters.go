package dutlint

import (
	"fmt"

	"symriscv/internal/core"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
)

// DefaultNumRegs is the number of symbolic initial registers (x1..xN) the
// adapters give the core. Two registers cover every two-source instruction
// shape; the cores' own register-slicing forks the rd/rs fields over the
// interesting set.
const DefaultNumRegs = 2

// mrvCycleLimit and pipeCycleLimit bound one instruction slot. The longest
// microrv32 slot is a misaligned store split over two bus transactions
// (fetch + fetch-wait + exec + 2×mem ≈ 8 cycles); pipecore retires in 3.
const (
	mrvCycleLimit  = 32
	pipeCycleLimit = 16
)

// mrvDUT adapts the multi-cycle MicroRV32 core.
type mrvDUT struct {
	cfg     microrv32.Config
	numRegs int
}

// MicroRV32 returns the dutlint adapter for the MicroRV32 core. numRegs
// sets the symbolic initial registers (0 selects DefaultNumRegs).
func MicroRV32(cfg microrv32.Config, numRegs int) DUT {
	if numRegs <= 0 {
		numRegs = DefaultNumRegs
	}
	return &mrvDUT{cfg: cfg, numRegs: numRegs}
}

func (d *mrvDUT) Name() string { return "microrv32" }

func (d *mrvDUT) DecodeArms() []rtl.Row {
	return microrv32.DecodeTable(d.cfg.Faults)
}

// mrvCSRs are the CSRs given free symbolic initial storage. mscratch is
// deliberate bait: the RTL core does not implement it (a Table I
// "unimpl. CSR" row), so its initial value reaches nothing and the lint
// reports it unconstrained — the committed allowlist documents the known
// deficiency.
var mrvCSRs = []struct {
	addr uint16
	name string
}{
	{riscv.CSRMStatus, "mstatus"},
	{riscv.CSRMIe, "mie"},
	{riscv.CSRMTvec, "mtvec"},
	{riscv.CSRMScratch, "mscratch"},
}

// mrvCSROuts are the CSR next-values rooted as observables: every CSR the
// transition relation can commit a write to (nil storage — never written
// on any path — is skipped by AddRoot). Omitting a writable CSR here would
// make its read-modify-write terms falsely appear dead.
var mrvCSROuts = []struct {
	addr uint16
	name string
}{
	{riscv.CSRMStatus, "mstatus"},
	{riscv.CSRMIe, "mie"},
	{riscv.CSRMTvec, "mtvec"},
	{riscv.CSRMEpc, "mepc"},
	{riscv.CSRMCause, "mcause"},
	{riscv.CSRMTval, "mtval"},
	{riscv.CSRMIp, "mip"},
	{riscv.CSRMIdeleg, "mideleg"},
	{riscv.CSRMEdeleg, "medeleg"},
	{riscv.CSRMCycle, "mcycle"},
	{riscv.CSRMInstret, "minstret"},
	{riscv.CSRMCycleH, "mcycleh"},
	{riscv.CSRMInstretH, "minstreth"},
}

func (d *mrvDUT) Run(eng *core.Engine) (*CycleResult, error) {
	c := microrv32.New(eng, d.cfg)
	c.SetPC(0)
	for i := 1; i <= d.numRegs; i++ {
		c.SetReg(i, eng.MakeSymbolic(fmt.Sprintf("reg_x%d", i), 32))
	}
	for _, cs := range mrvCSRs {
		c.SetCSR(cs.addr, eng.MakeSymbolic("csr_"+cs.name, 32))
	}
	ret, bus, err := driveOne(eng, c, mrvCycleLimit)
	if err != nil {
		return nil, err
	}
	res := &CycleResult{Bus: bus}
	res.AddRoot(ClassState, "pc_next", ret.PCWData)
	for i := 1; i <= d.numRegs; i++ {
		res.AddRoot(ClassState, fmt.Sprintf("x%d", i), c.Reg(i))
	}
	for _, cs := range mrvCSROuts {
		res.AddRoot(ClassCSR, cs.name, c.CSR(cs.addr))
	}
	addRVFIRoots(res, ret)
	return res, nil
}

// pipeDUT adapts the fetch-overlapped pipelined core.
type pipeDUT struct {
	cfg     pipecore.Config
	numRegs int
}

// Pipecore returns the dutlint adapter for the pipelined core.
func Pipecore(cfg pipecore.Config, numRegs int) DUT {
	if numRegs <= 0 {
		numRegs = DefaultNumRegs
	}
	return &pipeDUT{cfg: cfg, numRegs: numRegs}
}

func (d *pipeDUT) Name() string { return "pipecore" }

func (d *pipeDUT) DecodeArms() []rtl.Row {
	return pipecore.DecodeTable(d.cfg.Faults)
}

func (d *pipeDUT) Run(eng *core.Engine) (*CycleResult, error) {
	c := pipecore.New(eng, d.cfg)
	c.SetPC(0)
	for i := 1; i <= d.numRegs; i++ {
		c.SetReg(i, eng.MakeSymbolic(fmt.Sprintf("reg_x%d", i), 32))
	}
	ret, bus, err := driveOne(eng, c, pipeCycleLimit)
	if err != nil {
		return nil, err
	}
	res := &CycleResult{Bus: bus}
	res.AddRoot(ClassState, "pc_next", ret.PCWData)
	for i := 1; i <= d.numRegs; i++ {
		res.AddRoot(ClassState, fmt.Sprintf("x%d", i), c.Reg(i))
	}
	addRVFIRoots(res, ret)
	return res, nil
}

// addRVFIRoots reports the data-carrying RVFI port fields. pc_wdata
// already appears as the pc_next state root; the remaining fields carry
// the architectural effects of the retired instruction. Nil fields
// (no register write, no memory access) are skipped per path; the
// collector unions the populated variants across paths.
func addRVFIRoots(res *CycleResult, ret *rvfi.Retirement) {
	res.AddRoot(ClassRVFI, "insn", ret.Insn)
	res.AddRoot(ClassRVFI, "pc_rdata", ret.PCRData)
	if ret.RdAddr != 0 {
		res.AddRoot(ClassRVFI, "rd_wdata", ret.RdWData)
	}
	res.AddRoot(ClassRVFI, "mem_addr", ret.MemAddr)
	res.AddRoot(ClassRVFI, "mem_wdata", ret.MemWData)
}
