package microrv32_test

import (
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/microrv32"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// busTrace records the DBus transactions the core issued.
type busTrace struct {
	reads  []rtl.DBusRequest
	writes []rtl.DBusRequest
}

type fixture struct {
	rets   []rvfi.Retirement
	trace  busTrace
	mem    map[uint32]uint8
	cycles uint64
}

// run clocks the core over a concrete program with a concrete byte memory,
// servicing both buses, until n instructions retired.
func run(t *testing.T, cfg microrv32.Config, words []uint32, regs map[int]uint32, n int, preMem map[uint32]uint8) fixture {
	t.Helper()
	var fx fixture
	x := core.NewExplorer(func(e *core.Engine) error {
		ctx := e.Context()
		c := microrv32.New(e, cfg)
		for i, v := range regs {
			c.SetReg(i, ctx.BV(32, uint64(v)))
		}
		mem := map[uint32]uint8{}
		for a, v := range preMem {
			mem[a] = v
		}
		fx = fixture{mem: mem}

		var ib rtl.IBusResponse
		var db rtl.DBusResponse
		for cycles := 0; len(fx.rets) < n; cycles++ {
			if cycles > 64*n {
				t.Errorf("core hung after %d cycles", cycles)
				return nil
			}
			ibReq, dbReq := c.Step(ib, db)
			fx.cycles++
			ib, db = rtl.IBusResponse{}, rtl.DBusResponse{}
			if ibReq.FetchEnable {
				addr := uint32(ibReq.Address.ConstVal())
				w := uint32(riscv.ADDI(0, 0, 0))
				if int(addr/4) < len(words) && addr%4 == 0 {
					w = words[addr/4]
				}
				ib = rtl.IBusResponse{InstructionReady: true, Instruction: ctx.BV(32, uint64(w))}
			}
			if dbReq.Enable {
				base := uint32(dbReq.Address.ConstVal()) &^ 3
				if dbReq.Write {
					fx.trace.writes = append(fx.trace.writes, dbReq)
					for lane := uint32(0); lane < 4; lane++ {
						if dbReq.WrStrobe>>lane&1 == 1 {
							mem[base+lane] = uint8(dbReq.WriteData.ConstVal() >> (8 * lane))
						}
					}
					db = rtl.DBusResponse{DataReady: true, ReadData: ctx.BV(32, 0)}
				} else {
					fx.trace.reads = append(fx.trace.reads, dbReq)
					var v uint64
					for lane := uint32(0); lane < 4; lane++ {
						v |= uint64(mem[base+lane]) << (8 * lane)
					}
					db = rtl.DBusResponse{DataReady: true, ReadData: ctx.BV(32, v)}
				}
			}
			if ret := c.Retirement(); ret.Valid {
				fx.rets = append(fx.rets, *ret)
			}
		}
		return nil
	})
	rep := x.Explore(core.Options{})
	if rep.Stats.Completed != 1 || rep.Stats.Paths != 1 {
		t.Fatalf("concrete program should run on one path: %v", rep.Stats)
	}
	return fx
}

func cval(t *testing.T, term *smt.Term) uint32 {
	t.Helper()
	if term == nil || !term.IsConst() {
		t.Fatalf("term not concrete: %v", term)
	}
	return uint32(term.ConstVal())
}

func TestALURetirement(t *testing.T) {
	regs := map[int]uint32{1: 0xfffffff6, 2: 7}
	cases := []struct {
		word uint32
		want uint32
	}{
		{riscv.ADD(3, 1, 2), 0xfffffffd},
		{riscv.SUB(3, 1, 2), 0xffffffef},
		{riscv.SRA(3, 1, 2), 0xffffffff},
		{riscv.ADDI(3, 1, -5), 0xfffffff1},
		{riscv.SLLI(3, 2, 4), 0x70},
		{riscv.LUI(3, 0xabcde000), 0xabcde000},
	}
	for _, tc := range cases {
		fx := run(t, microrv32.FixedConfig(), []uint32{tc.word}, regs, 1, nil)
		ret := fx.rets[0]
		if ret.Trap {
			t.Errorf("%s trapped", riscv.Disasm(tc.word))
			continue
		}
		if ret.RdAddr != 3 || cval(t, ret.RdWData) != tc.want {
			t.Errorf("%s: x%d = %#x, want x3 = %#x", riscv.Disasm(tc.word), ret.RdAddr, cval(t, ret.RdWData), tc.want)
		}
		if cval(t, ret.PCWData) != 4 {
			t.Errorf("%s: pc_wdata = %#x", riscv.Disasm(tc.word), cval(t, ret.PCWData))
		}
	}
}

func TestMultiCycleTiming(t *testing.T) {
	// Fetch (2 cycles: request + wait) + execute = 3 cycles for an ALU op.
	fx := run(t, microrv32.FixedConfig(), []uint32{riscv.ADDI(1, 0, 1)}, nil, 1, nil)
	if fx.cycles != 3 {
		t.Errorf("ALU instruction took %d cycles, want 3", fx.cycles)
	}
	// A load adds the DBus access cycle.
	fx = run(t, microrv32.FixedConfig(), []uint32{riscv.LW(1, 0, 100)}, nil, 1, nil)
	if fx.cycles != 4 {
		t.Errorf("load took %d cycles, want 4", fx.cycles)
	}
}

func TestRVFIOrderAndInsn(t *testing.T) {
	prog := []uint32{riscv.ADDI(1, 0, 1), riscv.ADDI(2, 0, 2)}
	fx := run(t, microrv32.FixedConfig(), prog, nil, 2, nil)
	if fx.rets[0].Order != 1 || fx.rets[1].Order != 2 {
		t.Error("rvfi_order must count retirements")
	}
	if cval(t, fx.rets[1].Insn) != prog[1] {
		t.Error("rvfi_insn mismatch")
	}
	if cval(t, fx.rets[1].PCRData) != 4 {
		t.Error("second instruction pc_rdata must be 4")
	}
}

func TestLoadLaneExtraction(t *testing.T) {
	mem := map[uint32]uint8{100: 0x80, 101: 0x91, 102: 0x22, 103: 0x13}
	regs := map[int]uint32{1: 100}
	cases := []struct {
		word   uint32
		want   uint32
		strobe rtl.Strobe
	}{
		{riscv.LB(3, 1, 0), 0xffffff80, rtl.StrobeByte0},
		{riscv.LBU(3, 1, 1), 0x91, rtl.StrobeByte1},
		{riscv.LBU(3, 1, 3), 0x13, rtl.StrobeByte3},
		{riscv.LH(3, 1, 0), 0xffff9180, rtl.StrobeHalf0},
		{riscv.LHU(3, 1, 2), 0x1322, rtl.StrobeHalf1},
		{riscv.LW(3, 1, 0), 0x13229180, rtl.StrobeWord},
	}
	for _, tc := range cases {
		fx := run(t, microrv32.FixedConfig(), []uint32{tc.word}, regs, 1, mem)
		if got := cval(t, fx.rets[0].RdWData); got != tc.want {
			t.Errorf("%s: got %#x, want %#x", riscv.Disasm(tc.word), got, tc.want)
		}
		if len(fx.trace.reads) != 1 || fx.trace.reads[0].WrStrobe != tc.strobe {
			t.Errorf("%s: strobe %04b, want %04b", riscv.Disasm(tc.word), fx.trace.reads[0].WrStrobe, tc.strobe)
		}
	}
}

func TestStoreStrobes(t *testing.T) {
	regs := map[int]uint32{1: 100, 2: 0xdeadbeef}
	fx := run(t, microrv32.FixedConfig(), []uint32{riscv.SH(1, 2, 2)}, regs, 1, nil)
	w := fx.trace.writes
	if len(w) != 1 || w[0].WrStrobe != rtl.StrobeHalf1 {
		t.Fatalf("sh strobe wrong: %+v", w)
	}
	if fx.mem[102] != 0xef || fx.mem[103] != 0xbe {
		t.Errorf("sh stored %#x %#x", fx.mem[102], fx.mem[103])
	}
	if _, ok := fx.mem[100]; ok {
		t.Error("sh touched unselected lanes")
	}
}

func TestMisalignedSupportSplitsTransactions(t *testing.T) {
	// Shipped core: misaligned LW at 102 must issue two word reads and
	// assemble the straddling bytes.
	mem := map[uint32]uint8{102: 0x11, 103: 0x22, 104: 0x33, 105: 0x44}
	regs := map[int]uint32{1: 102}
	cfg := microrv32.ShippedConfig()
	fx := run(t, cfg, []uint32{riscv.LW(3, 1, 0)}, regs, 1, mem)
	if len(fx.trace.reads) != 2 {
		t.Fatalf("misaligned LW issued %d transactions, want 2", len(fx.trace.reads))
	}
	if got := cval(t, fx.rets[0].RdWData); got != 0x44332211 {
		t.Errorf("misaligned LW = %#x, want 0x44332211", got)
	}
	// Misaligned store splits too.
	fx = run(t, cfg, []uint32{riscv.SW(1, 2, 1)}, map[int]uint32{1: 102, 2: 0xa1b2c3d4}, 1, nil)
	if len(fx.trace.writes) != 2 {
		t.Fatalf("misaligned SW issued %d transactions, want 2", len(fx.trace.writes))
	}
	for i, want := range []uint8{0xd4, 0xc3, 0xb2, 0xa1} {
		if got := fx.mem[103+uint32(i)]; got != want {
			t.Errorf("mem[%d] = %#x, want %#x", 103+i, got, want)
		}
	}
}

func TestFixedCoreTrapsOnMisaligned(t *testing.T) {
	regs := map[int]uint32{1: 101}
	fx := run(t, microrv32.FixedConfig(), []uint32{riscv.LW(3, 1, 0)}, regs, 1, nil)
	ret := fx.rets[0]
	if !ret.Trap || ret.Cause != riscv.ExcLoadAddrMisaligned {
		t.Errorf("fixed core must trap misaligned LW: trap=%v cause=%d", ret.Trap, ret.Cause)
	}
	if len(fx.trace.reads) != 0 {
		t.Error("trapped access must not touch the bus")
	}
}

func TestWFIBehaviour(t *testing.T) {
	fx := run(t, microrv32.ShippedConfig(), []uint32{riscv.WFI()}, nil, 1, nil)
	if !fx.rets[0].Trap {
		t.Error("shipped core must trap on WFI")
	}
	fx = run(t, microrv32.FixedConfig(), []uint32{riscv.WFI()}, nil, 1, nil)
	if fx.rets[0].Trap {
		t.Error("fixed core must execute WFI as NOP")
	}
}

func TestShippedCSRBugs(t *testing.T) {
	shipped := microrv32.ShippedConfig()
	// Unknown CSR: no trap, reads zero.
	fx := run(t, shipped, []uint32{riscv.CSRRW(1, 0x400, 0)}, nil, 1, nil)
	if fx.rets[0].Trap {
		t.Error("shipped core must not trap on unknown CSR")
	}
	if cval(t, fx.rets[0].RdWData) != 0 {
		t.Error("unknown CSR must read zero")
	}
	// Read-only ID write: silently ignored.
	fx = run(t, shipped, []uint32{riscv.CSRRW(0, riscv.CSRMArchID, 1)}, map[int]uint32{1: 1}, 1, nil)
	if fx.rets[0].Trap {
		t.Error("shipped core must not trap writing marchid")
	}
	// Counter write: spurious trap.
	for _, csr := range []uint16{riscv.CSRMIp, riscv.CSRMCycle, riscv.CSRMInstret, riscv.CSRMCycleH, riscv.CSRMInstretH} {
		fx = run(t, shipped, []uint32{riscv.CSRRW(0, uint32(csr), 0)}, nil, 1, nil)
		if !fx.rets[0].Trap {
			t.Errorf("shipped core must trap writing %s", riscv.CSRName(csr))
		}
	}
}

func TestFixedCSRBehaviour(t *testing.T) {
	fixed := microrv32.FixedConfig()
	// Unknown CSR traps.
	fx := run(t, fixed, []uint32{riscv.CSRRW(1, 0x400, 0)}, nil, 1, nil)
	if !fx.rets[0].Trap {
		t.Error("fixed core must trap on unknown CSR")
	}
	// Read-only write traps.
	fx = run(t, fixed, []uint32{riscv.CSRRW(0, riscv.CSRMArchID, 1)}, map[int]uint32{1: 1}, 1, nil)
	if !fx.rets[0].Trap {
		t.Error("fixed core must trap writing marchid")
	}
	// Counter write succeeds and reads back.
	prog := []uint32{
		riscv.CSRRW(0, riscv.CSRMCycle, 1),
		riscv.CSRRS(2, riscv.CSRMCycle, 0),
	}
	fx = run(t, fixed, prog, map[int]uint32{1: 0x777}, 2, nil)
	if fx.rets[0].Trap || fx.rets[1].Trap {
		t.Fatal("fixed counter write trapped")
	}
	if got := cval(t, fx.rets[1].RdWData); got != 0x777 {
		t.Errorf("mcycle read-back = %#x, want 0x777", got)
	}
}

func TestHardwareCounters(t *testing.T) {
	// mcycle reads the real cycle counter; minstret the retired count.
	prog := []uint32{
		riscv.ADDI(0, 0, 0),
		riscv.CSRRS(1, riscv.CSRMInstret, 0),
		riscv.CSRRS(2, riscv.CSRMCycle, 0),
	}
	fx := run(t, microrv32.FixedConfig(), prog, nil, 3, nil)
	if got := cval(t, fx.rets[1].RdWData); got != 1 {
		t.Errorf("minstret during 2nd instruction = %d, want 1", got)
	}
	if got := cval(t, fx.rets[2].RdWData); got < 6 {
		t.Errorf("mcycle = %d, want >= 6", got)
	}
}

func TestDecodeFaultsAcceptReserved(t *testing.T) {
	reserved := riscv.SLLI(3, 1, 4) | 1<<25
	regs := map[int]uint32{1: 2}

	fx := run(t, microrv32.FixedConfig(), []uint32{reserved}, regs, 1, nil)
	if !fx.rets[0].Trap {
		t.Fatal("clean core must trap on the reserved shift encoding")
	}
	cfg := microrv32.FixedConfig()
	cfg.Faults = faults.Only(faults.E0)
	fx = run(t, cfg, []uint32{reserved}, regs, 1, nil)
	if fx.rets[0].Trap {
		t.Fatal("E0 core must decode the reserved encoding as SLLI")
	}
	if got := cval(t, fx.rets[0].RdWData); got != 2<<4 {
		t.Errorf("E0 SLLI result = %#x, want %#x", got, 2<<4)
	}
}

func TestDataPathFaults(t *testing.T) {
	regs := map[int]uint32{1: 3, 2: 1}

	cfg := microrv32.FixedConfig()
	cfg.Faults = faults.Only(faults.E3)
	fx := run(t, cfg, []uint32{riscv.ADDI(3, 1, 2)}, regs, 1, nil)
	if got := cval(t, fx.rets[0].RdWData); got != 4 {
		t.Errorf("E3: addi 3+2 = %d, want 4 (bit0 stuck)", got)
	}

	cfg.Faults = faults.Only(faults.E4)
	fx = run(t, cfg, []uint32{riscv.SUB(3, 2, 1)}, regs, 1, nil)
	if got := cval(t, fx.rets[0].RdWData); got != 0x7ffffffe {
		t.Errorf("E4: 1-3 = %#x, want 0x7ffffffe", got)
	}

	cfg.Faults = faults.Only(faults.E5)
	fx = run(t, cfg, []uint32{riscv.JAL(1, 64)}, nil, 1, nil)
	if got := cval(t, fx.rets[0].PCWData); got != 4 {
		t.Errorf("E5: jal next pc = %d, want 4", got)
	}

	cfg.Faults = faults.Only(faults.E6)
	fx = run(t, cfg, []uint32{riscv.BNE(1, 1, 64)}, regs, 1, nil)
	if got := cval(t, fx.rets[0].PCWData); got != 64 {
		t.Errorf("E6: bne on equal regs must branch (beq behaviour), got pc %d", got)
	}

	mem := map[uint32]uint8{100: 0x80, 101: 0x01, 102: 0x02, 103: 0x03}
	cfg.Faults = faults.Only(faults.E7)
	fx = run(t, cfg, []uint32{riscv.LBU(3, 1, 97)}, regs, 1, mem) // x1=3 -> addr 100
	if got := cval(t, fx.rets[0].RdWData); got != 0x03 {
		t.Errorf("E7: lbu lane flip: got %#x, want 0x03 (lane 3)", got)
	}

	cfg.Faults = faults.Only(faults.E8)
	fx = run(t, cfg, []uint32{riscv.LB(3, 1, 97)}, regs, 1, mem)
	if got := cval(t, fx.rets[0].RdWData); got != 0x80 {
		t.Errorf("E8: lb without sign extension: got %#x, want 0x80", got)
	}

	cfg.Faults = faults.Only(faults.E9)
	fx = run(t, cfg, []uint32{riscv.LW(3, 1, 97)}, regs, 1, mem)
	if got := cval(t, fx.rets[0].RdWData); got != 0x0180 {
		t.Errorf("E9: lw lower half only: got %#x, want 0x0180", got)
	}
}

func TestImplementsCSR(t *testing.T) {
	if !microrv32.ImplementsCSR(riscv.CSRMCycle) || !microrv32.ImplementsCSR(riscv.CSRMIdeleg) {
		t.Error("core should implement mcycle/mideleg")
	}
	for _, addr := range []uint16{riscv.CSRMScratch, riscv.CSRMCounteren, riscv.CSRCycle, riscv.CSRMHpmCounterBase + 3} {
		if microrv32.ImplementsCSR(addr) {
			t.Errorf("core should not implement %s", riscv.CSRName(addr))
		}
	}
}
