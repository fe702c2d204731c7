package pipecore_test

import (
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/pipecore"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

type fixture struct {
	rets   []rvfi.Retirement
	cycles uint64
	mem    map[uint32]uint8
}

// run clocks the pipelined core over a concrete program with a concrete byte
// memory until n retirements.
func run(t *testing.T, cfg pipecore.Config, words []uint32, regs map[int]uint32, n int, preMem map[uint32]uint8) fixture {
	t.Helper()
	var fx fixture
	x := core.NewExplorer(func(e *core.Engine) error {
		ctx := e.Context()
		c := pipecore.New(e, cfg)
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
			if cycles > 64*n+64 {
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
					for lane := uint32(0); lane < 4; lane++ {
						if dbReq.WrStrobe>>lane&1 == 1 {
							mem[base+lane] = uint8(dbReq.WriteData.ConstVal() >> (8 * lane))
						}
					}
					db = rtl.DBusResponse{DataReady: true, ReadData: ctx.BV(32, 0)}
				} else {
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

func TestPipelineOverlap(t *testing.T) {
	// Straight-line ALU code must approach 1 instruction per cycle after the
	// pipeline fills — measurably faster than the multi-cycle core's 3.
	prog := make([]uint32, 10)
	for i := range prog {
		prog[i] = riscv.ADDI(3, 3, 1)
	}
	fx := run(t, pipecore.Config{}, prog, nil, 10, nil)
	if fx.cycles > 24 {
		t.Errorf("10 ALU instructions took %d cycles; pipeline not overlapping", fx.cycles)
	}
	last := fx.rets[9]
	if got := cval(t, last.RdWData); got != 10 {
		t.Errorf("accumulated x3 = %d, want 10", got)
	}
	if cval(t, last.PCRData) != 36 {
		t.Errorf("10th instruction pc = %d", cval(t, last.PCRData))
	}
}

func TestProgramOrderRetirement(t *testing.T) {
	prog := []uint32{
		riscv.ADDI(1, 0, 5),
		riscv.ADDI(2, 1, 3), // depends on x1: write-through regfile
		riscv.ADD(3, 1, 2),
	}
	fx := run(t, pipecore.Config{}, prog, nil, 3, nil)
	for i, r := range fx.rets {
		if r.Order != uint64(i+1) {
			t.Fatalf("retirement %d has order %d", i, r.Order)
		}
	}
	if got := cval(t, fx.rets[1].RdWData); got != 8 {
		t.Errorf("dependent ADDI read stale x1: got %d, want 8", got)
	}
	if got := cval(t, fx.rets[2].RdWData); got != 13 {
		t.Errorf("ADD got %d, want 13", got)
	}
}

func TestBranchFlush(t *testing.T) {
	prog := []uint32{
		riscv.BEQ(0, 0, 12),   // taken: skip next two
		riscv.ADDI(1, 0, 111), // must be flushed
		riscv.ADDI(1, 0, 222), // never fetched
		riscv.ADDI(2, 0, 7),   // branch target
	}
	fx := run(t, pipecore.Config{}, prog, nil, 2, nil)
	if got := cval(t, fx.rets[0].PCWData); got != 12 {
		t.Fatalf("branch target %d, want 12", got)
	}
	second := fx.rets[1]
	if cval(t, second.PCRData) != 12 || second.RdAddr != 2 {
		t.Fatalf("instruction after taken branch: pc=%d rd=%d", cval(t, second.PCRData), second.RdAddr)
	}
	if got := cval(t, second.RdWData); got != 7 {
		t.Fatalf("x2 = %d, want 7 (flushed instruction leaked)", got)
	}
}

func TestJalAndJalr(t *testing.T) {
	prog := []uint32{
		riscv.JAL(1, 8),      // to pc=8, link 4
		riscv.ADDI(2, 0, 99), // skipped
		riscv.JALR(3, 1, 8),  // x1=4 -> target 12
		riscv.ADDI(4, 0, 1),  // at 12
	}
	fx := run(t, pipecore.Config{}, prog, nil, 3, nil)
	if got := cval(t, fx.rets[0].RdWData); got != 4 {
		t.Fatalf("jal link %d", got)
	}
	if cval(t, fx.rets[1].PCRData) != 8 {
		t.Fatalf("jal went to %d", cval(t, fx.rets[1].PCRData))
	}
	if cval(t, fx.rets[1].RdWData) != 12 {
		t.Fatalf("jalr link %d", cval(t, fx.rets[1].RdWData))
	}
	if cval(t, fx.rets[2].PCRData) != 12 {
		t.Fatalf("jalr went to %d", cval(t, fx.rets[2].PCRData))
	}
}

func TestLoadStoreAndTraps(t *testing.T) {
	mem := map[uint32]uint8{100: 0x80, 101: 0x91}
	regs := map[int]uint32{1: 100, 2: 0xdeadbeef}

	fx := run(t, pipecore.Config{}, []uint32{riscv.LB(3, 1, 0)}, regs, 1, mem)
	if got := cval(t, fx.rets[0].RdWData); got != 0xffffff80 {
		t.Errorf("lb = %#x", got)
	}
	fx = run(t, pipecore.Config{}, []uint32{riscv.SH(1, 2, 0)}, regs, 1, nil)
	if fx.mem[100] != 0xef || fx.mem[101] != 0xbe {
		t.Errorf("sh stored %#x %#x", fx.mem[100], fx.mem[101])
	}
	// Misaligned traps to vector 0.
	fx = run(t, pipecore.Config{}, []uint32{riscv.LW(3, 1, 1)}, regs, 1, nil)
	r := fx.rets[0]
	if !r.Trap || r.Cause != riscv.ExcLoadAddrMisaligned || cval(t, r.PCWData) != 0 {
		t.Errorf("misaligned LW: trap=%v cause=%d next=%d", r.Trap, r.Cause, cval(t, r.PCWData))
	}
	// CSR instructions are not implemented: illegal.
	fx = run(t, pipecore.Config{}, []uint32{riscv.CSRRW(1, riscv.CSRMScratch, 2)}, regs, 1, nil)
	if !fx.rets[0].Trap || fx.rets[0].Cause != riscv.ExcIllegalInstruction {
		t.Error("csrrw must trap illegal on the CSR-less pipeline core")
	}
}

// TestHazardFaultConcrete pins each E10–E14 injection point with a concrete
// two-instruction program, independent of the symbolic campaign.
func TestHazardFaultConcrete(t *testing.T) {
	// E10: a back-to-back rs1 consumer reads the stale operand.
	fx := run(t, pipecore.Config{Faults: faults.Only(faults.E10)}, []uint32{
		riscv.ADDI(1, 0, 5),
		riscv.ADD(2, 1, 0),
	}, nil, 2, nil)
	if got := cval(t, fx.rets[1].RdWData); got != 0 {
		t.Errorf("E10: dependent ADD = %d, want stale 0", got)
	}
	// E11: the rs2 twin.
	fx = run(t, pipecore.Config{Faults: faults.Only(faults.E11)}, []uint32{
		riscv.ADDI(1, 0, 5),
		riscv.ADD(2, 0, 1),
	}, nil, 2, nil)
	if got := cval(t, fx.rets[1].RdWData); got != 0 {
		t.Errorf("E11: dependent ADD = %d, want stale 0", got)
	}
	// E12: the wrong-path fall-through retires after the taken branch.
	fx = run(t, pipecore.Config{Faults: faults.Only(faults.E12)}, []uint32{
		riscv.BEQ(0, 0, 12),
		riscv.ADDI(1, 0, 111),
		riscv.ADDI(1, 0, 222),
		riscv.ADDI(2, 0, 7),
	}, nil, 2, nil)
	if got := cval(t, fx.rets[1].PCRData); got != 4 {
		t.Errorf("E12: second retirement at pc=%d, want wrong-path 4", got)
	}
	// E13: the front end resumes at target+4.
	fx = run(t, pipecore.Config{Faults: faults.Only(faults.E13)}, []uint32{
		riscv.BEQ(0, 0, 12),
		riscv.ADDI(1, 0, 111),
		riscv.ADDI(1, 0, 222),
		riscv.ADDI(2, 0, 7),
		riscv.ADDI(3, 0, 9),
	}, nil, 2, nil)
	if got := cval(t, fx.rets[1].PCRData); got != 16 {
		t.Errorf("E13: second retirement at pc=%d, want 16", got)
	}
	// E14: the flush erases the link-register writeback of a taken JAL.
	fx = run(t, pipecore.Config{Faults: faults.Only(faults.E14)}, []uint32{
		riscv.JAL(1, 8),
		riscv.ADDI(9, 0, 1),
		riscv.ADD(2, 1, 0),
	}, nil, 2, nil)
	if got := cval(t, fx.rets[1].RdWData); got != 0 {
		t.Errorf("E14: link register read back %d, want rolled-back 0", got)
	}
}

// pipeCfg is the matched pipeline-vs-ISS co-simulation scenario.
func pipeCfg(f faults.Set) cosim.Config {
	return cosim.Config{
		ISS:    iss.FixedConfig(),
		Filter: cosim.BlockSystemInstructions,
		NewDUT: func(eng *core.Engine) cosim.DUT {
			return pipecore.New(eng, pipecore.Config{Faults: f})
		},
	}
}

// TestPipelineMatchedAgainstISS is the generality check: the clean pipelined
// core must agree with the reference ISS over the full symbolic RV32I space
// at instruction limit 1.
func TestPipelineMatchedAgainstISS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space exploration")
	}
	x := core.NewExplorer(cosim.RunFunc(pipeCfg(faults.None)))
	rep := x.Explore(core.Options{MaxTime: 120 * time.Second})
	if len(rep.Findings) != 0 {
		t.Fatalf("pipeline core diverges from ISS: %v", rep.Findings[0].Err)
	}
	if !rep.Exhausted {
		t.Fatalf("exploration not exhausted: %v", rep.Stats)
	}
	t.Logf("pipeline matched exploration: %v", rep.Stats)
}

// TestPipelineMatchedLimit2 extends the agreement to two-instruction traces
// (pipelining effects only show with >1 instruction in flight).
func TestPipelineMatchedLimit2(t *testing.T) {
	cfg := pipeCfg(faults.None)
	cfg.InstrLimit = 2
	cfg.Filter = cosim.Filters(cosim.BlockSystemInstructions, cosim.OnlyOpcode(riscv.OpBranch))
	x := core.NewExplorer(cosim.RunFunc(cfg))
	rep := x.Explore(core.Options{MaxTime: 60 * time.Second, MaxPaths: 500})
	if len(rep.Findings) != 0 {
		t.Fatalf("pipeline diverges at limit 2: %v", rep.Findings[0].Err)
	}
	if rep.Stats.Completed == 0 {
		t.Fatal("no completed paths")
	}
}

// TestPipelineFaultsFound reruns a Table II subset against the pipelined
// core: the same injected errors must be found by the same methodology.
func TestPipelineFaultsFound(t *testing.T) {
	for _, f := range faults.Base() {
		x := core.NewExplorer(cosim.RunFunc(pipeCfg(faults.Only(f))))
		rep := x.Explore(core.Options{StopOnFirstFinding: true, MaxTime: 60 * time.Second})
		if len(rep.Findings) != 1 {
			t.Errorf("%s not found on the pipelined core: %v", f, rep.Stats)
		}
	}
}

// TestPipelineHazardFaultsFound covers the E10–E14 hazard/forwarding/control
// series. All five corrupt how one instruction's effect reaches the next, so
// they are invisible at instruction limit 1 and need two instructions in
// flight. Each fault gets a filter steering the two-instruction space toward
// its trigger shape (producer–consumer for the bypass faults, control flow
// for the redirect faults) so the sweep stays fast under -race; full-space
// detection is pinned by the `symv table2 -core pipecore` campaign in CI.
func TestPipelineHazardFaultsFound(t *testing.T) {
	// Control-flow subtree: branches, JAL and JALR (E14 needs a rd-writing
	// redirect followed by a consumer of the rolled-back link register).
	ctl := func(eng *core.Engine, word *smt.Term) {
		ctx := eng.Context()
		op := ctx.And(word, ctx.BV(32, 0x7f))
		eng.Assume(ctx.BOr(ctx.Eq(op, ctx.BV(32, riscv.OpJAL)),
			ctx.BOr(ctx.Eq(op, ctx.BV(32, riscv.OpJALR)),
				ctx.Eq(op, ctx.BV(32, riscv.OpBranch)))))
	}
	narrow := map[faults.Fault]cosim.InstrFilter{
		faults.E10: cosim.OnlyOpcode(riscv.OpReg), // producer + rs1 consumer
		faults.E11: cosim.OnlyOpcode(riscv.OpReg), // producer + rs2 consumer
		faults.E12: cosim.OnlyOpcode(riscv.OpBranch),
		faults.E13: cosim.OnlyOpcode(riscv.OpBranch),
		faults.E14: ctl,
	}
	for _, f := range faults.Pipeline() {
		cfg := pipeCfg(faults.Only(f))
		cfg.InstrLimit = 2
		cfg.Filter = cosim.Filters(cosim.BlockSystemInstructions, narrow[f])
		x := core.NewExplorer(cosim.RunFunc(cfg))
		rep := x.Explore(core.Options{StopOnFirstFinding: true, MaxTime: 120 * time.Second})
		if len(rep.Findings) != 1 {
			t.Errorf("%s not found on the pipelined core at limit 2: %v", f, rep.Stats)
		}
	}
}

// TestPipelineHazardFaultsInvisibleAtLimit1 pins down why the series needs
// multi-instruction traces: a single retirement carries no cross-instruction
// effect, so each fault's limit-1 exploration must stay clean.
func TestPipelineHazardFaultsInvisibleAtLimit1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space exploration")
	}
	for _, f := range faults.Pipeline() {
		x := core.NewExplorer(cosim.RunFunc(pipeCfg(faults.Only(f))))
		rep := x.Explore(core.Options{MaxTime: 120 * time.Second})
		if len(rep.Findings) != 0 {
			t.Errorf("%s visible at limit 1: %v", f, rep.Findings[0].Err)
		}
		if !rep.Exhausted {
			t.Errorf("%s limit-1 exploration not exhausted: %v", f, rep.Stats)
		}
	}
}

// slotLine drives the external interrupt line concretely: asserted for the
// slots in the set, deasserted otherwise.
type slotLine struct {
	ctx   *smt.Context
	slots map[uint64]bool
}

func (l slotLine) Line(slot uint64) *smt.Term {
	if l.slots[slot] {
		return l.ctx.BV(1, 1)
	}
	return l.ctx.BV(1, 0)
}

// TestPipelineInterruptEntryConcrete clocks the core with the interrupt line
// asserted for slot 0 and enables latched via SetCSR: the prefetched program
// instruction must be squashed and the first retirement must be the handler
// instruction at the hardwired vector 0.
func TestPipelineInterruptEntryConcrete(t *testing.T) {
	var rets []rvfi.Retirement
	x := core.NewExplorer(func(e *core.Engine) error {
		ctx := e.Context()
		c := pipecore.New(e, pipecore.Config{})
		c.SetPC(0x100)
		c.SetCSR(riscv.CSRMStatus, ctx.BV(32, riscv.MstatusMIE))
		c.SetCSR(riscv.CSRMIe, ctx.BV(32, riscv.MieMEIE))
		c.SetIrqSource(slotLine{ctx: ctx, slots: map[uint64]bool{0: true}})
		rets = nil
		var ib rtl.IBusResponse
		for cycles := 0; len(rets) < 2; cycles++ {
			if cycles > 64 {
				t.Fatal("core hung waiting for interrupt entry")
			}
			ibReq, _ := c.Step(ib, rtl.DBusResponse{})
			ib = rtl.IBusResponse{}
			if ibReq.FetchEnable {
				addr := uint32(ibReq.Address.ConstVal())
				w := riscv.ADDI(1, 0, 42) // handler body at/after the vector
				if addr >= 0x100 {
					w = riscv.ADDI(2, 0, 7) // original program
				}
				ib = rtl.IBusResponse{InstructionReady: true, Instruction: ctx.BV(32, uint64(w))}
			}
			if ret := c.Retirement(); ret.Valid {
				rets = append(rets, *ret)
			}
		}
		return nil
	})
	rep := x.Explore(core.Options{})
	if rep.Stats.Completed != 1 {
		t.Fatalf("concrete interrupt entry should run on one path: %v", rep.Stats)
	}
	if got := cval(t, rets[0].PCRData); got != 0 {
		t.Fatalf("first retirement at pc=%#x, want the vector 0", got)
	}
	if rets[0].RdAddr != 1 {
		t.Fatalf("first retirement rd=x%d, want the handler's x1", rets[0].RdAddr)
	}
	// Only slot 0 asserts the line: slot 1 must continue at vector+4.
	if got := cval(t, rets[1].PCRData); got != 4 {
		t.Fatalf("second retirement at pc=%#x, want 4", got)
	}
}

// TestPipelineInterruptsMatched extends the generality check to the
// interrupt-enabled scenario: with the symbolic line and symbolic initial
// mstatus/mie, the pipelined core must agree with the reference ISS on every
// path, and the take-condition must actually fork.
func TestPipelineInterruptsMatched(t *testing.T) {
	cfg := pipeCfg(faults.None)
	cfg.SymbolicInterrupts = true
	cfg.StartPC = 0x100 // keep the trap vector (0) distinct from the program
	cfg.Filter = cosim.Filters(cosim.BlockSystemInstructions, cosim.OnlyOpcode(riscv.OpImm))
	x := core.NewExplorer(cosim.RunFunc(cfg))
	rep := x.Explore(core.Options{MaxTime: 120 * time.Second})
	if len(rep.Findings) != 0 {
		t.Fatalf("interrupt mismatch on matched pipeline: %v", rep.Findings[0].Err)
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted: %v", rep.Stats)
	}
	base := pipeCfg(faults.None)
	base.Filter = cosim.Filters(cosim.BlockSystemInstructions, cosim.OnlyOpcode(riscv.OpImm))
	baseRep := core.NewExplorer(cosim.RunFunc(base)).Explore(core.Options{MaxTime: 120 * time.Second})
	if rep.Stats.Completed < baseRep.Stats.Completed*3/2 {
		t.Fatalf("interrupt line did not fork: %d paths vs %d without interrupts",
			rep.Stats.Completed, baseRep.Stats.Completed)
	}
}
