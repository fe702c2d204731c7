package iss_test

import (
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/iss"
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
)

// progMem serves a concrete program; unmapped addresses fetch a NOP.
type progMem struct {
	ctx   *smt.Context
	words map[uint32]uint32
}

func (m *progMem) Fetch(addr uint32) *smt.Term {
	if w, ok := m.words[addr]; ok {
		return m.ctx.BV(32, uint64(w))
	}
	return m.ctx.BV(32, uint64(riscv.ADDI(0, 0, 0)))
}

// byteMem is a concrete byte memory.
type byteMem struct {
	ctx   *smt.Context
	bytes map[uint32]uint8
}

func (m *byteMem) get(addr uint32) uint8 { return m.bytes[addr] }
func (m *byteMem) LoadByte(addr uint32) *smt.Term {
	return m.ctx.BV(8, uint64(m.get(addr)))
}
func (m *byteMem) LoadHalf(addr uint32) *smt.Term {
	return m.ctx.BV(16, uint64(m.get(addr))|uint64(m.get(addr+1))<<8)
}
func (m *byteMem) LoadWord(addr uint32) *smt.Term {
	var v uint64
	for i := uint32(0); i < 4; i++ {
		v |= uint64(m.get(addr+i)) << (8 * i)
	}
	return m.ctx.BV(32, v)
}
func (m *byteMem) StoreByte(addr uint32, v *smt.Term) { m.bytes[addr] = uint8(v.ConstVal()) }
func (m *byteMem) StoreHalf(addr uint32, v *smt.Term) {
	m.bytes[addr] = uint8(v.ConstVal())
	m.bytes[addr+1] = uint8(v.ConstVal() >> 8)
}
func (m *byteMem) StoreWord(addr uint32, v *smt.Term) {
	for i := uint32(0); i < 4; i++ {
		m.bytes[addr+i] = uint8(v.ConstVal() >> (8 * i))
	}
}

type fixture struct {
	results []iss.Result
	mem     map[uint32]uint8
}

// run executes a concrete program on the ISS inside a single-path
// exploration and returns the per-step results.
func run(t *testing.T, cfg iss.Config, words []uint32, regs map[int]uint32, steps int, preMem map[uint32]uint8) fixture {
	t.Helper()
	var fx fixture
	x := core.NewExplorer(func(e *core.Engine) error {
		ctx := e.Context()
		pm := &progMem{ctx: ctx, words: map[uint32]uint32{}}
		for i, w := range words {
			pm.words[uint32(4*i)] = w
		}
		bm := &byteMem{ctx: ctx, bytes: map[uint32]uint8{}}
		for a, v := range preMem {
			bm.bytes[a] = v
		}
		s := new(iss.ISS)
		s.Reset(e, pm, bm, cfg)
		for i, v := range regs {
			s.SetReg(i, ctx.BV(32, uint64(v)))
		}
		fx.results = nil
		for i := 0; i < steps; i++ {
			fx.results = append(fx.results, s.Step())
		}
		fx.mem = bm.bytes
		return nil
	})
	rep := x.Explore(core.Options{})
	if rep.Stats.Completed != 1 || rep.Stats.Paths != 1 {
		t.Fatalf("concrete program should execute on exactly one path: %v", rep.Stats)
	}
	return fx
}

func cval(t *testing.T, term *smt.Term) uint32 {
	t.Helper()
	if term == nil {
		t.Fatal("nil term")
	}
	if !term.IsConst() {
		t.Fatalf("term not concrete: %v", term)
	}
	return uint32(term.ConstVal())
}

func TestALUSemantics(t *testing.T) {
	regs := map[int]uint32{1: 0xffff_fff6, 2: 7} // x1 = -10, x2 = 7
	cases := []struct {
		word uint32
		want uint32
	}{
		{riscv.ADD(3, 1, 2), 0xffff_fffd},
		{riscv.SUB(3, 1, 2), 0xffff_ffef},
		{riscv.AND(3, 1, 2), 6},
		{riscv.OR(3, 1, 2), 0xffff_fff7},
		{riscv.XOR(3, 1, 2), 0xffff_fff1},
		{riscv.SLT(3, 1, 2), 1},
		{riscv.SLTU(3, 1, 2), 0},
		{riscv.SLL(3, 1, 2), 0xffff_fb00}, // -10 << 7
		{riscv.SRL(3, 1, 2), 0x01ff_ffff},
		{riscv.SRA(3, 1, 2), 0xffff_ffff},
		{riscv.ADDI(3, 1, -5), 0xffff_fff1},
		{riscv.SLTI(3, 1, 0), 1},
		{riscv.SLTIU(3, 1, -1), 1},
		{riscv.XORI(3, 1, 0xff), 0xffff_ff09},
		{riscv.ORI(3, 2, 0x30), 0x37},
		{riscv.ANDI(3, 1, 0xff), 0xf6},
		{riscv.SLLI(3, 2, 4), 0x70},
		{riscv.SRLI(3, 1, 28), 0xf},
		{riscv.SRAI(3, 1, 4), 0xffff_ffff},
		{riscv.LUI(3, 0x12345000), 0x12345000},
		{riscv.AUIPC(3, 0x1000), 0x1000},
	}
	for _, tc := range cases {
		fx := run(t, iss.FixedConfig(), []uint32{tc.word}, regs, 1, nil)
		r := fx.results[0]
		if r.Trap {
			t.Errorf("%s: unexpected trap", riscv.Disasm(tc.word))
			continue
		}
		if r.RdAddr != 3 {
			t.Errorf("%s: rd = %d", riscv.Disasm(tc.word), r.RdAddr)
			continue
		}
		if got := cval(t, r.RdValue); got != tc.want {
			t.Errorf("%s: x3 = %#x, want %#x", riscv.Disasm(tc.word), got, tc.want)
		}
	}
}

func TestSLLOf(t *testing.T) {
	// Fixup for the SLL row above: (-10) << 7 = 0xfffffb00.
	fx := run(t, iss.FixedConfig(), []uint32{riscv.SLL(3, 1, 2)}, map[int]uint32{1: 0xfffffff6, 2: 7}, 1, nil)
	if got := cval(t, fx.results[0].RdValue); got != 0xfffffb00 {
		t.Errorf("sll: got %#x, want 0xfffffb00", got)
	}
}

func TestControlFlow(t *testing.T) {
	regs := map[int]uint32{1: 5, 2: 5, 3: 9}
	cases := []struct {
		word   uint32
		nextPC uint32
	}{
		{riscv.BEQ(1, 2, 64), 64},
		{riscv.BNE(1, 2, 64), 4},
		{riscv.BNE(1, 3, 64), 64},
		{riscv.BLT(1, 3, 64), 64},
		{riscv.BGE(1, 3, 64), 4},
		{riscv.BLTU(3, 1, 64), 4},
		{riscv.BGEU(3, 1, 64), 64},
		{riscv.JAL(5, 100), 100},
		{riscv.JALR(5, 3, 100), 108}, // (9+100)&~1
	}
	for _, tc := range cases {
		fx := run(t, iss.FixedConfig(), []uint32{tc.word}, regs, 1, nil)
		r := fx.results[0]
		if got := cval(t, r.NextPC); got != tc.nextPC {
			t.Errorf("%s: next pc %#x, want %#x", riscv.Disasm(tc.word), got, tc.nextPC)
		}
		if riscv.Decode(tc.word).Mn == riscv.InsJAL && cval(t, r.RdValue) != 4 {
			t.Errorf("jal link value wrong")
		}
	}
}

func TestLoadsAndStores(t *testing.T) {
	mem := map[uint32]uint8{100: 0x80, 101: 0x91, 102: 0x22, 103: 0x13}
	regs := map[int]uint32{1: 100, 2: 0xdeadbeef}

	checks := []struct {
		word uint32
		want uint32
	}{
		{riscv.LB(3, 1, 0), 0xffffff80},
		{riscv.LBU(3, 1, 0), 0x80},
		{riscv.LH(3, 1, 0), 0xffff9180},
		{riscv.LHU(3, 1, 0), 0x9180},
		{riscv.LW(3, 1, 0), 0x13229180},
		{riscv.LB(3, 1, 2), 0x22},
	}
	for _, tc := range checks {
		fx := run(t, iss.FixedConfig(), []uint32{tc.word}, regs, 1, mem)
		r := fx.results[0]
		if r.Trap {
			t.Errorf("%s: unexpected trap", riscv.Disasm(tc.word))
			continue
		}
		if got := cval(t, r.RdValue); got != tc.want {
			t.Errorf("%s: got %#x, want %#x", riscv.Disasm(tc.word), got, tc.want)
		}
	}

	fx := run(t, iss.FixedConfig(), []uint32{riscv.SW(1, 2, 8)}, regs, 1, nil)
	if fx.results[0].Trap {
		t.Fatal("sw trapped")
	}
	for i, want := range []uint8{0xef, 0xbe, 0xad, 0xde} {
		if got := fx.mem[108+uint32(i)]; got != want {
			t.Errorf("mem[%d] = %#x, want %#x", 108+i, got, want)
		}
	}
	fx = run(t, iss.FixedConfig(), []uint32{riscv.SB(1, 2, 8)}, regs, 1, nil)
	if got := fx.mem[108]; got != 0xef {
		t.Errorf("sb stored %#x", got)
	}
	if _, ok := fx.mem[109]; ok {
		t.Error("sb touched more than one byte")
	}
}

func TestMisalignedTraps(t *testing.T) {
	regs := map[int]uint32{1: 101}
	for _, tc := range []struct {
		word  uint32
		cause uint32
	}{
		{riscv.LW(3, 1, 0), riscv.ExcLoadAddrMisaligned},
		{riscv.LH(3, 1, 0), riscv.ExcLoadAddrMisaligned},
		{riscv.SW(1, 2, 0), riscv.ExcStoreAddrMisaligned},
		{riscv.SH(1, 2, 0), riscv.ExcStoreAddrMisaligned},
	} {
		fx := run(t, iss.VPConfig(), []uint32{tc.word}, regs, 1, nil)
		r := fx.results[0]
		if !r.Trap || r.Cause != tc.cause {
			t.Errorf("%s: trap=%v cause=%d, want cause %d", riscv.Disasm(tc.word), r.Trap, r.Cause, tc.cause)
		}
		if r.RdAddr != 0 {
			t.Errorf("%s: trapped instruction must not write rd", riscv.Disasm(tc.word))
		}
	}
	// Byte accesses never misalign.
	fx := run(t, iss.VPConfig(), []uint32{riscv.LB(3, 1, 0)}, regs, 1, nil)
	if fx.results[0].Trap {
		t.Error("lb must not trap on odd address")
	}
}

func TestTrapsAndMret(t *testing.T) {
	// ecall traps to mtvec (0), records mepc/mcause; mret returns to mepc.
	prog := []uint32{
		riscv.CSRRWI(0, riscv.CSRMTvec, 16), // set mtvec = 16... CSRRWI writes zimm (max 31)
	}
	fx := run(t, iss.FixedConfig(), prog, nil, 1, nil)
	if fx.results[0].Trap {
		t.Fatal("mtvec write trapped")
	}

	// Program: set mtvec=16 (nop-pad), ecall at pc=4 -> trap to 16; mret at 16 -> back to 4.
	prog = []uint32{
		riscv.CSRRWI(0, riscv.CSRMTvec, 16),
		riscv.ECALL(),
		riscv.ADDI(0, 0, 0),
		riscv.ADDI(0, 0, 0),
		riscv.MRET(),
	}
	fx = run(t, iss.FixedConfig(), prog, nil, 3, nil)
	r1 := fx.results[1] // ecall
	if !r1.Trap || r1.Cause != riscv.ExcEnvCallFromM {
		t.Fatalf("ecall: trap=%v cause=%d", r1.Trap, r1.Cause)
	}
	if got := cval(t, r1.NextPC); got != 16 {
		t.Fatalf("trap vector: pc = %d, want 16", got)
	}
	r2 := fx.results[2] // mret at 16
	if got := cval(t, r2.NextPC); got != 4 {
		t.Fatalf("mret: pc = %d, want 4 (mepc)", got)
	}
}

func TestEbreakAndWFI(t *testing.T) {
	fx := run(t, iss.FixedConfig(), []uint32{riscv.EBREAK()}, nil, 1, nil)
	if !fx.results[0].Trap || fx.results[0].Cause != riscv.ExcBreakpoint {
		t.Error("ebreak should trap with breakpoint cause")
	}
	fx = run(t, iss.FixedConfig(), []uint32{riscv.WFI()}, nil, 1, nil)
	if fx.results[0].Trap {
		t.Error("wfi must be a NOP in the ISS")
	}
	if got := cval(t, fx.results[0].NextPC); got != 4 {
		t.Error("wfi must fall through")
	}
}

func TestIllegalInstructionTraps(t *testing.T) {
	for _, w := range []uint32{
		0x00000000,
		0xffffffff,
		riscv.SLLI(1, 2, 3) | 1<<25, // reserved RV32 shift encoding
		riscv.EncodeI(riscv.OpLoad, 1, 3, 2, 0),
	} {
		fx := run(t, iss.FixedConfig(), []uint32{w}, map[int]uint32{2: 8}, 1, nil)
		r := fx.results[0]
		if !r.Trap || r.Cause != riscv.ExcIllegalInstruction {
			t.Errorf("%#08x: trap=%v cause=%d, want illegal", w, r.Trap, r.Cause)
		}
	}
}

func TestCSRSemantics(t *testing.T) {
	regs := map[int]uint32{1: 0xf0f0, 2: 0x0f0f}

	// csrrw reads old value, writes new; csrrs sets bits; csrrc clears bits.
	prog := []uint32{
		riscv.CSRRW(3, riscv.CSRMScratch, 1), // x3 = 0, mscratch = 0xf0f0
		riscv.CSRRS(4, riscv.CSRMScratch, 2), // x4 = 0xf0f0, mscratch = 0xffff
		riscv.CSRRC(5, riscv.CSRMScratch, 1), // x5 = 0xffff, mscratch = 0x0f0f
		riscv.CSRRS(6, riscv.CSRMScratch, 0), // x6 = 0x0f0f (no write)
	}
	fx := run(t, iss.FixedConfig(), prog, regs, 4, nil)
	wants := []uint32{0, 0xf0f0, 0xffff, 0x0f0f}
	for i, want := range wants {
		if fx.results[i].Trap {
			t.Fatalf("step %d trapped", i)
		}
		if got := cval(t, fx.results[i].RdValue); got != want {
			t.Errorf("step %d: rd = %#x, want %#x", i, got, want)
		}
	}

	// Immediate forms.
	prog = []uint32{
		riscv.CSRRWI(3, riscv.CSRMScratch, 21), // mscratch = 21
		riscv.CSRRSI(4, riscv.CSRMScratch, 8),  // x4 = 21, mscratch = 29
		riscv.CSRRCI(5, riscv.CSRMScratch, 5),  // x5 = 29, mscratch = 24
		riscv.CSRRSI(6, riscv.CSRMScratch, 0),  // x6 = 24
	}
	fx = run(t, iss.FixedConfig(), prog, nil, 4, nil)
	for i, want := range []uint32{0, 21, 29, 24} {
		if got := cval(t, fx.results[i].RdValue); got != want {
			t.Errorf("imm step %d: rd = %#x, want %#x", i, got, want)
		}
	}
}

func TestCSRWriteToReadOnlyTraps(t *testing.T) {
	for _, w := range []uint32{
		riscv.CSRRW(0, riscv.CSRMArchID, 0),
		riscv.CSRRS(1, riscv.CSRMVendorID, 1),
		riscv.CSRRWI(0, riscv.CSRMHartID, 3),
		riscv.CSRRW(0, riscv.CSRCycle, 0),
	} {
		fx := run(t, iss.FixedConfig(), []uint32{w}, map[int]uint32{1: 1}, 1, nil)
		r := fx.results[0]
		if !r.Trap || r.Cause != riscv.ExcIllegalInstruction {
			t.Errorf("%s: want illegal trap, got trap=%v", riscv.Disasm(w), r.Trap)
		}
	}
	// Read-only CSR *reads* are fine.
	fx := run(t, iss.FixedConfig(), []uint32{riscv.CSRRS(1, riscv.CSRMArchID, 0)}, nil, 1, nil)
	if fx.results[0].Trap {
		t.Error("marchid read trapped")
	}
}

func TestUnknownCSRTraps(t *testing.T) {
	fx := run(t, iss.FixedConfig(), []uint32{riscv.CSRRW(1, 0x400, 0)}, nil, 1, nil)
	if !fx.results[0].Trap {
		t.Error("access to unknown CSR must trap")
	}
}

func TestVPBugsMidelegMedelegReadTrap(t *testing.T) {
	// VP config: reads of mideleg/medeleg trap (the paper's E* rows).
	for _, csr := range []uint16{riscv.CSRMIdeleg, riscv.CSRMEdeleg} {
		fx := run(t, iss.VPConfig(), []uint32{riscv.CSRRS(1, uint32(csr), 0)}, nil, 1, nil)
		if !fx.results[0].Trap {
			t.Errorf("VP must trap reading %s", riscv.CSRName(csr))
		}
		// Write-only access (csrrw rd=x0) performs no read and must not trap.
		fx = run(t, iss.VPConfig(), []uint32{riscv.CSRRW(0, uint32(csr), 1)}, map[int]uint32{1: 1}, 1, nil)
		if fx.results[0].Trap {
			t.Errorf("VP write-only access to %s must not trap", riscv.CSRName(csr))
		}
		// The fixed config reads fine.
		fx = run(t, iss.FixedConfig(), []uint32{riscv.CSRRS(1, uint32(csr), 0)}, nil, 1, nil)
		if fx.results[0].Trap {
			t.Errorf("fixed ISS must read %s", riscv.CSRName(csr))
		}
	}
}

func TestAbstractCounters(t *testing.T) {
	// The ISS counters advance one per instruction, counting the current
	// one: reading mcycle on the first instruction gives 1, on the third 3.
	prog := []uint32{
		riscv.CSRRS(1, riscv.CSRMCycle, 0),
		riscv.ADDI(0, 0, 0),
		riscv.CSRRS(2, riscv.CSRInstret, 0),
	}
	fx := run(t, iss.FixedConfig(), prog, nil, 3, nil)
	if got := cval(t, fx.results[0].RdValue); got != 1 {
		t.Errorf("mcycle at instr 1 = %d, want 1", got)
	}
	if got := cval(t, fx.results[2].RdValue); got != 3 {
		t.Errorf("instret at instr 3 = %d, want 3", got)
	}
}

func TestX0NeverWritten(t *testing.T) {
	fx := run(t, iss.FixedConfig(), []uint32{riscv.ADDI(0, 0, 99), riscv.ADD(3, 0, 0)}, nil, 2, nil)
	if fx.results[0].RdAddr != 0 {
		t.Error("write to x0 must not be reported")
	}
	if got := cval(t, fx.results[1].RdValue); got != 0 {
		t.Errorf("x0 leaked a value: %d", got)
	}
}

func TestHpmRangeImplemented(t *testing.T) {
	// hpm counters are storage in the VP: write then read back.
	csr := uint32(riscv.CSRMHpmCounterBase + 7)
	prog := []uint32{
		riscv.CSRRW(0, csr, 1),
		riscv.CSRRS(2, csr, 0),
	}
	fx := run(t, iss.FixedConfig(), prog, map[int]uint32{1: 0x1234}, 2, nil)
	if fx.results[0].Trap || fx.results[1].Trap {
		t.Fatal("hpm access trapped")
	}
	if got := cval(t, fx.results[1].RdValue); got != 0x1234 {
		t.Errorf("hpm read-back = %#x, want 0x1234", got)
	}
}

func TestImplementsCSR(t *testing.T) {
	for _, addr := range []uint16{riscv.CSRMScratch, riscv.CSRMCycle, riscv.CSRTimeH, riscv.CSRMHpmCounterBase + 3, riscv.CSRMHpmEventBase + 31} {
		if !iss.ImplementsCSR(addr) {
			t.Errorf("ISS should implement %s", riscv.CSRName(addr))
		}
	}
	for _, addr := range []uint16{0x400, 0x7c0, riscv.CSRMHpmEventBase + 2} {
		if iss.ImplementsCSR(addr) {
			t.Errorf("ISS should not implement %#x", addr)
		}
	}
}
