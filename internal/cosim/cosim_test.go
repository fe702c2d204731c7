package cosim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// matchedConfig is the clean Table II baseline: fixed core, fixed ISS, both
// trapping on misalignment; SYSTEM instructions blocked.
func matchedConfig() Config {
	return Config{
		ISS:    iss.FixedConfig(),
		Core:   microrv32.FixedConfig(),
		Filter: BlockSystemInstructions,
	}
}

func explore(t *testing.T, cfg Config, opts core.Options) *core.Report {
	t.Helper()
	x := core.NewExplorer(RunFunc(cfg))
	return x.Explore(opts)
}

// TestDirectedConcreteAgreement preloads concrete instructions and checks
// that the matched models agree, path by path, on a representative program.
func TestDirectedConcreteAgreement(t *testing.T) {
	words := []uint32{
		riscv.ADDI(5, 1, 123),
		riscv.ADD(6, 1, 2),
		riscv.XOR(7, 1, 2),
		riscv.SLLI(8, 2, 7),
		riscv.LUI(9, 0xabcd1000),
		riscv.AUIPC(10, 0x1000),
		riscv.SLT(11, 1, 2),
		riscv.SLTU(12, 1, 2),
		riscv.SRA(13, 1, 2),
		riscv.JAL(1, 16),
		riscv.JALR(3, 1, 8),
		riscv.BEQ(1, 2, 16),
		riscv.BLTU(1, 2, -16),
		riscv.FENCE(),
	}
	for _, w := range words {
		w := w
		cfg := matchedConfig()
		cfg.InstrLimit = 1
		x := core.NewExplorer(func(eng *core.Engine) error {
			return runPreloaded(eng, cfg, w)
		})
		rep := x.Explore(core.Options{MaxTime: 30 * time.Second})
		if len(rep.Findings) != 0 {
			t.Errorf("%s: unexpected mismatch: %v", riscv.Disasm(w), rep.Findings[0].Err)
		}
		if rep.Stats.Completed == 0 {
			t.Errorf("%s: no completed paths (%v)", riscv.Disasm(w), rep.Stats)
		}
	}
}

// runPreloaded runs one path on a fresh testbench with the first
// instruction pinned to a concrete word.
func runPreloaded(eng *core.Engine, cfg Config, word uint32) error {
	cfg.Filter = Filters(cfg.Filter, OnlyMasked(0xffffffff, word))
	return RunFunc(cfg)(eng)
}

// retireSpy records the DUT's first valid retirement.
type retireSpy struct {
	DUT
	first *rvfi.Retirement
}

func (s retireSpy) Retirement() *rvfi.Retirement {
	r := s.DUT.Retirement()
	if r.Valid && !s.first.Valid {
		*s.first = *r
	}
	return r
}

// TestFormerMExtensionWordsIllegal: the eight OP encodings with funct7 0x01
// (RV32M's MUL through REMU) are illegal on every layer of this RV32I+Zicsr
// build. The reference decoder rejects them, no decode-table row of either
// core matches them (clean or under any single fault), and a concrete
// co-simulation on each core traps illegal-instruction with no mismatch
// against the ISS.
func TestFormerMExtensionWordsIllegal(t *testing.T) {
	tables := []struct {
		kind  CoreKind
		table func(faults.Set) []rtl.Row
		dut   func(*core.Engine) DUT
	}{
		{CoreMicroRV32, microrv32.DecodeTable, func(eng *core.Engine) DUT { return microrv32.New(eng, microrv32.FixedConfig()) }},
		{CorePipecore, pipecore.DecodeTable, func(eng *core.Engine) DUT { return pipecore.New(eng, pipecore.Config{}) }},
	}
	sets := []faults.Set{faults.None}
	for _, f := range faults.All() {
		sets = append(sets, faults.Only(f))
	}
	for f3 := uint32(0); f3 < 8; f3++ {
		w := riscv.EncodeR(riscv.OpReg, 3, f3, 1, 2, 0x01)
		if mn := riscv.Decode(w).Mn; mn != riscv.InsInvalid {
			t.Errorf("%#08x decodes to %v", w, mn)
		}
		for _, tc := range tables {
			for _, fs := range sets {
				for _, row := range tc.table(fs) {
					if w&row.Mask == row.Match {
						t.Errorf("%v faults %v: %#08x matches the %v row", tc.kind, fs, w, row.Op)
					}
				}
			}
			var first rvfi.Retirement
			cfg := Config{
				ISS:          iss.FixedConfig(),
				NewDUT:       func(eng *core.Engine) DUT { return retireSpy{tc.dut(eng), &first} },
				ConcreteIMem: func(uint32) uint32 { return w },
				ConcreteMem:  func(addr uint32) uint8 { return uint8(addr) },
				ConcreteRegs: map[int]uint32{1: 0xfffffff6, 2: 7},
			}
			rep := explore(t, cfg, core.Options{})
			if len(rep.Findings) != 0 {
				t.Errorf("%v %#08x: %v", tc.kind, w, rep.Findings[0].Err)
			}
			if !first.Valid || !first.Trap || first.Cause != riscv.ExcIllegalInstruction {
				t.Errorf("%v %#08x: first retirement %+v, want an illegal-instruction trap", tc.kind, w, first)
			}
		}
	}
}

// TestMatchedModelsAgreeOneInstruction explores the full RV32I space (SYSTEM
// blocked) at instruction limit 1 on the matched configuration: the voter
// must find nothing.
func TestMatchedModelsAgreeOneInstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space exploration")
	}
	rep := explore(t, matchedConfig(), core.Options{MaxTime: 120 * time.Second})
	if len(rep.Findings) != 0 {
		t.Fatalf("false mismatch: %v", rep.Findings[0].Err)
	}
	if rep.Stats.Completed < 20 {
		t.Fatalf("suspiciously few completed paths: %v", rep.Stats)
	}
	t.Logf("matched exploration: %v (exhausted=%v)", rep.Stats, rep.Exhausted)
}

// TestFaultE6Found injects the BNE->BEQ fault and requires the explorer to
// produce a mismatch whose witness is a BNE instruction.
func TestFaultE6Found(t *testing.T) {
	cfg := matchedConfig()
	cfg.Core.Faults = faults.Only(faults.E6)
	rep := explore(t, cfg, core.Options{
		StopOnFirstFinding: true,
		MaxTime:            120 * time.Second,
	})
	if len(rep.Findings) != 1 {
		t.Fatalf("E6 not found: %v", rep.Stats)
	}
	var m *rvfi.Mismatch
	if !errors.As(rep.Findings[0].Err, &m) {
		t.Fatalf("finding is not a Mismatch: %v", rep.Findings[0].Err)
	}
	if riscv.Decode(m.Insn).Mn != riscv.InsBNE {
		t.Fatalf("witness %s is not a BNE", m.Disasm)
	}
	if m.Kind != rvfi.PCMismatch {
		t.Fatalf("kind = %v, want pc-mismatch", m.Kind)
	}
	t.Logf("E6 witness: %s (pc rtl=%#x iss=%#x) after %v", m.Disasm, m.RTLNext, m.ISSNext, rep.Stats)
}

// TestFaultE3Found injects the ADDI stuck-at-0 fault.
func TestFaultE3Found(t *testing.T) {
	cfg := matchedConfig()
	cfg.Core.Faults = faults.Only(faults.E3)
	rep := explore(t, cfg, core.Options{
		StopOnFirstFinding: true,
		MaxTime:            120 * time.Second,
	})
	if len(rep.Findings) != 1 {
		t.Fatalf("E3 not found: %v", rep.Stats)
	}
	var m *rvfi.Mismatch
	errors.As(rep.Findings[0].Err, &m)
	if riscv.Decode(m.Insn).Mn != riscv.InsADDI {
		t.Fatalf("witness %s is not an ADDI", m.Disasm)
	}
	if m.RTLRd&1 != 0 || m.ISSRd&1 != 1 {
		t.Fatalf("witness does not demonstrate the stuck bit: rtl=%#x iss=%#x", m.RTLRd, m.ISSRd)
	}
}

// TestMisalignmentMismatch reproduces the Table I LW row: shipped core
// supports misaligned loads, VP ISS traps.
func TestMisalignmentMismatch(t *testing.T) {
	cfg := Config{
		ISS:    iss.VPConfig(),
		Core:   microrv32.ShippedConfig(),
		Filter: OnlyMasked(0x707f, uint32(riscv.F3LW)<<12|riscv.OpLoad), // only LW
	}
	rep := explore(t, cfg, core.Options{
		StopOnFirstFinding: true,
		MaxTime:            120 * time.Second,
	})
	if len(rep.Findings) != 1 {
		t.Fatalf("misalignment mismatch not found: %v", rep.Stats)
	}
	var m *rvfi.Mismatch
	errors.As(rep.Findings[0].Err, &m)
	if m.Kind != rvfi.TrapMismatch {
		t.Fatalf("kind = %v, want trap-mismatch (%s)", m.Kind, m.Detail)
	}
	if !m.ISSTrap || m.RTLTrap {
		t.Fatalf("expected ISS-only trap, got rtl=%v iss=%v", m.RTLTrap, m.ISSTrap)
	}
	in := riscv.Decode(m.Insn)
	if in.Mn != riscv.InsLW {
		t.Fatalf("witness %s is not LW", m.Disasm)
	}
}

// TestWFIMismatch reproduces the Table I WFI row: shipped core traps on WFI,
// ISS treats it as a NOP.
func TestWFIMismatch(t *testing.T) {
	cfg := Config{
		ISS:    iss.VPConfig(),
		Core:   microrv32.ShippedConfig(),
		Filter: OnlyMasked(0xffffffff, riscv.WFI()),
	}
	rep := explore(t, cfg, core.Options{StopOnFirstFinding: true, MaxTime: 60 * time.Second})
	if len(rep.Findings) != 1 {
		t.Fatalf("WFI error not found: %v", rep.Stats)
	}
	var m *rvfi.Mismatch
	errors.As(rep.Findings[0].Err, &m)
	if m.Kind != rvfi.TrapMismatch || !m.RTLTrap || m.ISSTrap {
		t.Fatalf("expected RTL-only trap, got %v (rtl=%v iss=%v)", m.Kind, m.RTLTrap, m.ISSTrap)
	}
}

// TestReplayReproducesFinding is the ktest-replay round trip: the concrete
// witness of a hunt, pinned back into the co-simulation, must reproduce the
// same mismatch on a single path.
func TestReplayReproducesFinding(t *testing.T) {
	for _, f := range []faults.Fault{faults.E3, faults.E6, faults.E8} {
		cfg := matchedConfig()
		cfg.Core.Faults = faults.Only(f)
		rep := explore(t, cfg, core.Options{StopOnFirstFinding: true, MaxTime: 60 * time.Second})
		if len(rep.Findings) != 1 {
			t.Fatalf("%s: hunt found nothing", f)
		}
		var m *rvfi.Mismatch
		if !errors.As(rep.Findings[0].Err, &m) {
			t.Fatalf("%s: not a mismatch", f)
		}

		got, err := Replay(cfg, m.Env)
		if err != nil {
			t.Fatalf("%s: replay error: %v", f, err)
		}
		if got == nil {
			t.Fatalf("%s: replay reproduced no mismatch", f)
		}
		if got.Kind != m.Kind || got.Insn != m.Insn {
			t.Fatalf("%s: replay diverged: %v/%#x vs %v/%#x", f, got.Kind, got.Insn, m.Kind, m.Insn)
		}
	}
}

// TestReplayCleanVectorFindsNothing pins a completed path's test vector on
// the clean baseline: no mismatch may appear.
func TestReplayCleanVectorFindsNothing(t *testing.T) {
	cfg := matchedConfig()
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(core.Options{MaxPaths: 10, GenerateTests: true})
	if len(rep.TestVectors) == 0 {
		t.Fatal("no test vectors generated")
	}
	m, err := Replay(cfg, rep.TestVectors[0].Inputs)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if m != nil {
		t.Fatalf("clean vector reproduced a mismatch: %v", m)
	}
}

// TestCycleLimitAbortsPath drives the execution controller's cycle bound: a
// tiny limit must abort every path as partially explored, with no findings.
func TestCycleLimitAbortsPath(t *testing.T) {
	cfg := matchedConfig()
	cfg.CycleLimit = 2 // an instruction needs >= 3 cycles
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(core.Options{MaxPaths: 3})
	if rep.Stats.Completed != 0 || len(rep.Findings) != 0 {
		t.Fatalf("cycle-limited run: %v findings=%d", rep.Stats, len(rep.Findings))
	}
	if rep.Stats.Partial == 0 {
		t.Fatal("expected partially explored paths")
	}
}

// TestTraceOutput checks the debugging trace contains the expected phases.
func TestTraceOutput(t *testing.T) {
	var buf strings.Builder
	cfg := matchedConfig()
	cfg.Trace = &buf
	cfg.Filter = Filters(cfg.Filter, OnlyMasked(0xffffffff, riscv.LW(1, 0, 100)))
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(core.Options{MaxPaths: 1})
	if rep.Stats.Paths != 1 {
		t.Fatalf("trace run: %v", rep.Stats)
	}
	out := buf.String()
	for _, want := range []string{"ibus fetch", "dbus load", "retire #1"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestStartPCPropagates verifies a non-zero reset PC reaches both models.
func TestStartPCPropagates(t *testing.T) {
	cfg := matchedConfig()
	cfg.StartPC = 0x1000
	var buf strings.Builder
	cfg.Trace = &buf
	x := core.NewExplorer(RunFunc(cfg))
	x.Explore(core.Options{MaxPaths: 1})
	if !strings.Contains(buf.String(), "addr=0x00001000") {
		t.Errorf("fetch did not start at StartPC:\n%s", buf.String())
	}
}

// TestTrapBoundaryAgreement crosses a trap at instruction limit 2: both
// models must vector to mtvec (reset value 0) and agree on the instruction
// executed there.
func TestTrapBoundaryAgreement(t *testing.T) {
	cfg := matchedConfig()
	cfg.InstrLimit = 2
	// Pin instruction 0 to ECALL; instruction 1 is then fetched from the
	// trap vector (0), i.e. the same cached word — a second ECALL. Both
	// models must loop through the vector identically.
	cfg.Filter = Filters(cfg.Filter, OnlyMasked(0xffffffff, riscv.ECALL()))
	// The Table II filter blocks SYSTEM; drop it for this directed test.
	cfg.Filter = OnlyMasked(0xffffffff, riscv.ECALL())
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(core.Options{MaxTime: 30 * time.Second})
	if len(rep.Findings) != 0 {
		t.Fatalf("trap boundary mismatch: %v", rep.Findings[0].Err)
	}
	if rep.Stats.Completed == 0 {
		t.Fatalf("no completed paths: %v", rep.Stats)
	}
}

// TestMretAfterTrapAgreement: ecall then mret must return both models to the
// faulting PC (mepc). The program starts at PC 8 with ECALL there, so the
// trap-vector fetch at 0 is a different cached word, constrained to MRET.
func TestMretAfterTrapAgreement(t *testing.T) {
	cfg2 := matchedConfig()
	cfg2.InstrLimit = 2
	cfg2.StartPC = 8
	cfg2.Filter = func(e *core.Engine, w *smt.Term) {
		ctx := e.Context()
		if w.Name() == "imem_00000008" {
			e.Assume(ctx.Eq(w, ctx.BV(32, uint64(riscv.ECALL()))))
		}
		if w.Name() == "imem_00000000" {
			e.Assume(ctx.Eq(w, ctx.BV(32, uint64(riscv.MRET()))))
		}
	}
	x2 := core.NewExplorer(RunFunc(cfg2))
	rep := x2.Explore(core.Options{MaxTime: 30 * time.Second})
	if len(rep.Findings) != 0 {
		t.Fatalf("ecall/mret mismatch: %v", rep.Findings[0].Err)
	}
	if rep.Stats.Completed == 0 {
		t.Fatal("no completed paths")
	}
}

// interruptConfig is the matched scenario with the symbolic interrupt line
// and symbolic initial mstatus/mie enabled.
func interruptConfig() Config {
	cfg := matchedConfig()
	cfg.SymbolicInterrupts = true
	cfg.StartPC = 0x100 // keep the trap vector (0) distinct from the program
	return cfg
}

// TestSymbolicInterruptsMatched: with identical interrupt logic on both
// sides, the symbolic interrupt line must not produce any mismatch, and the
// exploration must cover both the taken and not-taken interrupt paths.
func TestSymbolicInterruptsMatched(t *testing.T) {
	cfg := interruptConfig()
	cfg.Filter = Filters(cfg.Filter, OnlyOpcode(riscv.OpImm))
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(core.Options{MaxTime: 120 * time.Second})
	if len(rep.Findings) != 0 {
		t.Fatalf("interrupt mismatch on matched models: %v", rep.Findings[0].Err)
	}
	if !rep.Exhausted {
		t.Fatalf("not exhausted: %v", rep.Stats)
	}
	// The engine must have forked on the take-condition: with symbolic
	// mstatus/mie/irq both outcomes are feasible, roughly doubling the
	// OP-IMM path count.
	base := matchedConfig()
	base.Filter = Filters(base.Filter, OnlyOpcode(riscv.OpImm))
	baseRep := core.NewExplorer(RunFunc(base)).Explore(core.Options{MaxTime: 120 * time.Second})
	if rep.Stats.Completed < baseRep.Stats.Completed*3/2 {
		t.Fatalf("interrupt line did not fork: %d paths vs %d without interrupts",
			rep.Stats.Completed, baseRep.Stats.Completed)
	}
}

// TestInterruptMIEBugFound injects the interrupt-logic fault (MIE gate
// ignored) and requires the engine to find it: a path where the line is
// asserted and MEIE is set but MIE is clear — the RTL vectors, the ISS does
// not, and the executed-instruction PCs diverge.
func TestInterruptMIEBugFound(t *testing.T) {
	cfg := interruptConfig()
	cfg.Core.IgnoreMIEBug = true
	rep := explore(t, cfg, core.Options{StopOnFirstFinding: true, MaxTime: 120 * time.Second})
	if len(rep.Findings) != 1 {
		t.Fatalf("MIE bug not found: %v", rep.Stats)
	}
	var m *rvfi.Mismatch
	if !errors.As(rep.Findings[0].Err, &m) {
		t.Fatalf("finding type: %v", rep.Findings[0].Err)
	}
	if m.Kind != rvfi.PCMismatch {
		t.Fatalf("kind = %v (%s), want pc-mismatch", m.Kind, m.Detail)
	}
	// The witness must demonstrate the bug: irq asserted, MEIE set, MIE clear.
	if m.Env["irq_0"] != 1 {
		t.Errorf("witness irq_0 = %d, want 1", m.Env["irq_0"])
	}
	if m.Env["csr_mie"]>>11&1 != 1 {
		t.Errorf("witness mie.MEIE not set: %#x", m.Env["csr_mie"])
	}
	if m.Env["csr_mstatus"]>>3&1 != 0 {
		t.Errorf("witness mstatus.MIE set — not the buggy case: %#x", m.Env["csr_mstatus"])
	}
	t.Logf("MIE bug witness: irq=1 mie=%#x mstatus=%#x after %v", m.Env["csr_mie"], m.Env["csr_mstatus"], rep.Stats)
}

// TestInterruptEntryDirected drives a fully concrete interrupt entry.
func TestInterruptEntryDirected(t *testing.T) {
	cfg := interruptConfig()
	cfg.Pin = smt.MapEnv{
		"irq_0":         1,
		"csr_mstatus":   riscv.MstatusMIE,
		"csr_mie":       riscv.MieMEIE,
		"imem_00000000": uint64(riscv.ADDI(1, 0, 42)), // at the trap vector
		"imem_00000100": uint64(riscv.ADDI(2, 0, 7)),  // original program
		"reg_x1":        0,
		"reg_x2":        0,
	}
	var buf strings.Builder
	cfg.Trace = &buf
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(core.Options{MaxPaths: 8})
	if len(rep.Findings) != 0 {
		t.Fatalf("directed interrupt entry mismatched: %v", rep.Findings[0].Err)
	}
	// The retired instruction must be the one at the vector, not at 0x100.
	if !strings.Contains(buf.String(), "pc=0x00000000 insn=") {
		t.Fatalf("interrupt did not vector:\n%s", buf.String())
	}
}

// deterministic is the slice of a Stats that the report contract pins
// independent of caching and scheduling.
type deterministic struct {
	Paths, Completed, Partial, Infeasible    int
	Instructions, Cycles                     uint64
	Branches, Concretizations, SolverQueries uint64
}

func detOf(s core.Stats) deterministic {
	return deterministic{
		Paths: s.Paths, Completed: s.Completed, Partial: s.Partial,
		Infeasible: s.Infeasible, Instructions: s.Instructions,
		Cycles: s.Cycles, Branches: s.Branches,
		Concretizations: s.Concretizations, SolverQueries: s.SolverQueries,
	}
}

// findingClass maps a finding error to its model-independent identity: the
// mismatch kind for voter findings, the full text otherwise.
func findingClass(t *testing.T, err error) string {
	t.Helper()
	var m *rvfi.Mismatch
	if errors.As(err, &m) {
		return m.Kind.String()
	}
	return err.Error()
}

// requireSameReport compares the deterministic report surface of two runs of
// the same scenario under different toggles: stats, findings (path index and
// mismatch class) and test-vector path indices must be byte-equivalent.
func requireSameReport(t *testing.T, on, off *core.Report) {
	t.Helper()
	if d1, d2 := detOf(on.Stats), detOf(off.Stats); d1 != d2 {
		t.Fatalf("deterministic stats differ:\n on:  %+v\n off: %+v", d1, d2)
	}
	if on.Exhausted != off.Exhausted {
		t.Fatalf("exhausted differs: on %v, off %v", on.Exhausted, off.Exhausted)
	}
	if len(on.Findings) != len(off.Findings) {
		t.Fatalf("finding counts differ: on %d, off %d", len(on.Findings), len(off.Findings))
	}
	// Witness values are any-model and excluded from the contract: a toggle
	// changes which queries reach the SAT core, so the model-derived mismatch
	// detail may differ. Path index and mismatch class are deterministic.
	for i := range on.Findings {
		f1, f2 := on.Findings[i], off.Findings[i]
		if f1.Path != f2.Path || findingClass(t, f1.Err) != findingClass(t, f2.Err) {
			t.Fatalf("finding %d differs:\n on:  path=%d %v\n off: path=%d %v",
				i, f1.Path, f1.Err, f2.Path, f2.Err)
		}
	}
	if len(on.TestVectors) != len(off.TestVectors) {
		t.Fatalf("test-vector counts differ: on %d, off %d",
			len(on.TestVectors), len(off.TestVectors))
	}
	for i := range on.TestVectors {
		if on.TestVectors[i].Path != off.TestVectors[i].Path {
			t.Fatalf("test vector %d path differs: on %d, off %d",
				i, on.TestVectors[i].Path, off.TestVectors[i].Path)
		}
	}
}

// TestInterruptCacheEquivalence pins the other toggle of the determinism
// contract for interrupt delivery: on both cores, the deterministic report
// surface of an interrupt-enabled run must be identical with the query cache
// on and off.
func TestInterruptCacheEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{name: "microrv32", cfg: matchedConfig},
		{name: "pipecore", cfg: func() Config {
			return Config{
				ISS:     iss.FixedConfig(),
				Filter:  BlockSystemInstructions,
				DUTCore: CorePipecore,
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.SymbolicInterrupts = true
			cfg.StartPC = 0x100
			cfg.InstrLimit = 1
			run := RunFunc(cfg)
			leg := func(noCache bool) *core.Report {
				return core.NewExplorer(run).Explore(core.Options{
					MaxPaths: 60, MaxTime: 120 * time.Second, NoQueryCache: noCache,
				})
			}
			requireSameReport(t, leg(false), leg(true))
		})
	}
}
