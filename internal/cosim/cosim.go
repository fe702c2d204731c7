// Package cosim implements the symbolic co-simulation testbench of the
// paper (§IV): it instantiates the RTL core and the reference ISS over one
// engine, supplies both with identical symbolic instructions and data,
// installs the sliced symbolic registers, clocks the core while servicing
// its buses, steps the ISS at every retirement, and lets the rvfi checker
// search for satisfiable architectural differences.
package cosim

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/obs"
	"symriscv/internal/pipecore"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/rvfi"
	"symriscv/internal/smt"
)

// DUT is the device-under-test contract the testbench drives: a clocked,
// bus-accurate core model with an RVFI retirement port (the canonical
// contract lives in rvfi). internal/microrv32 (the MicroRV32 role) and
// internal/pipecore (a pipelined second core) both satisfy it.
type DUT = rvfi.Port

// CoreKind names a built-in device under test.
type CoreKind string

// Built-in cores.
const (
	// CoreMicroRV32 is the multi-cycle FSM core (the paper's case study).
	CoreMicroRV32 CoreKind = "microrv32"
	// CorePipecore is the fetch-overlapped pipelined core.
	CorePipecore CoreKind = "pipecore"
)

// ParseCoreKind maps a user-facing core name to its CoreKind. The empty
// string selects the default core (microrv32); "pipeline" is accepted as a
// legacy spelling of pipecore.
func ParseCoreKind(s string) (CoreKind, bool) {
	switch s {
	case "", "microrv32":
		return CoreMicroRV32, true
	case "pipecore", "pipeline":
		return CorePipecore, true
	}
	return "", false
}

func (k CoreKind) String() string {
	if k == "" {
		return string(CoreMicroRV32)
	}
	return string(k)
}

// Config describes one co-simulation scenario.
type Config struct {
	// ISS selects the reference-model behaviour (default: as-shipped VP).
	ISS iss.Config
	// DUTCore selects the built-in device under test (default: microrv32).
	// NewDUT, when set, overrides it.
	DUTCore CoreKind
	// Core selects the DUT behaviour (shipped bugs and/or injected faults)
	// of the MicroRV32 model; used when DUTCore selects it.
	Core microrv32.Config
	// Pipe selects the DUT behaviour (injected faults) of the pipelined
	// model; used when DUTCore is CorePipecore.
	Pipe pipecore.Config
	// NewDUT overrides the device under test (default: the DUTCore-selected
	// built-in core).
	NewDUT func(eng *core.Engine) DUT

	// NumSymbolicRegs is the size of the symbolic register slice (x1..xN
	// fully symbolic; x0 hardwired zero; the rest concrete zero). The paper
	// shows 2 suffices for RV32I (no instruction has more than two source
	// registers) while keeping the state space minimal (§IV-C.3).
	NumSymbolicRegs int

	// InstrLimit is the execution controller's retired-instruction bound
	// per path (the paper evaluates limits 1 and 2).
	InstrLimit int

	// CycleLimit bounds the total clock cycles per path; 0 derives a bound
	// from InstrLimit. Exceeding it aborts the path (partially explored).
	CycleLimit int

	// Filter constrains generated instruction words (klee_assume analogue).
	Filter InstrFilter

	// StartPC is the reset PC of both models.
	StartPC uint32

	// SymbolicInterrupts drives a symbolic machine-external-interrupt line
	// (one 1-bit input per instruction slot) into both models and makes the
	// initial mstatus and mie values symbolic shared state — the interrupt
	// extension of the methodology.
	SymbolicInterrupts bool

	// Pin fixes symbolic inputs (by MakeSymbolic name) to concrete values.
	// With every input pinned the co-simulation collapses to a single
	// concrete path — the test-vector replay mode (KLEE's ktest replay
	// analogue).
	Pin smt.MapEnv

	// Trace, when non-nil, receives a per-cycle log of bus activity and
	// retirements — the debugging view of a co-simulation run (most useful
	// together with Pin/Replay on a concrete counterexample).
	Trace io.Writer

	// ConcreteIMem, ConcreteMem and ConcreteRegs replace the symbolic
	// instruction memory, data-memory initialisation and register slice
	// with concrete values — the fully concrete execution mode used by the
	// fuzzing baseline (no symbolic state, single path, no solver traffic).
	ConcreteIMem func(addr uint32) uint32
	ConcreteMem  func(addr uint32) uint8
	ConcreteRegs map[int]uint32
}

// WithDefaults fills unset fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.NumSymbolicRegs == 0 {
		c.NumSymbolicRegs = 2
	}
	if c.InstrLimit == 0 {
		c.InstrLimit = 1
	}
	if c.CycleLimit == 0 {
		c.CycleLimit = 64 * c.InstrLimit
	}
	return c
}

// WithFaults returns c with the injected fault set placed on the
// configuration of the core DUTCore selects: Pipe for the pipelined core,
// Core otherwise.
func (c Config) WithFaults(s faults.Set) Config {
	if c.DUTCore == CorePipecore {
		c.Pipe.Faults = s
	} else {
		c.Core.Faults = s
	}
	return c
}

// Run executes one co-simulation path under the engine on a testbench built
// for this call alone; RunFunc reuses testbenches across paths. A Mismatch is
// returned as the path error when the voter finds one.
func Run(eng *core.Engine, cfg Config) error { return RunFunc(cfg)(eng) }

// runState owns one co-simulation path's mutable testbench state. reset
// readies it for a path in place, so one runState serves many paths.
type runState struct {
	eng      *core.Engine
	cfg      Config
	imem     SymbolicIMem
	initPool SharedInit
	dmemRTL  SymbolicDMem
	dmemISS  SymbolicDMem
	mrv      microrv32.Core
	pipe     pipecore.Core
	dut      DUT
	ref      iss.ISS
	checker  rvfi.Checker
	irq      IrqLine
	regNames map[uint32]string // symbolic register names, kept across resets

	ib      rtl.IBusResponse
	db      rtl.DBusResponse
	retired int
	cycles  int
}

// reset builds the testbench for a path of eng: every memory and model at
// reset, the symbolic registers installed, and the checker bound to eng.
func (rs *runState) reset(eng *core.Engine, cfg Config) {
	ctx := eng.Context()
	rs.eng, rs.cfg = eng, cfg
	rs.ib, rs.db, rs.retired, rs.cycles = rtl.IBusResponse{}, rtl.DBusResponse{}, 0, 0

	filter := cfg.Filter
	if cfg.Pin != nil {
		filter = Filters(pinFilter(cfg.Pin), filter)
	}
	rs.imem.reset(eng, filter, cfg.ConcreteIMem)
	rs.initPool.reset(eng, cfg.Pin, cfg.ConcreteMem)
	rs.dmemRTL.reset(ctx, &rs.initPool)
	rs.dmemISS.reset(ctx, &rs.initPool)

	switch {
	case cfg.NewDUT != nil:
		rs.dut = cfg.NewDUT(eng)
	case cfg.DUTCore == CorePipecore:
		rs.pipe.Reset(eng, cfg.Pipe)
		rs.dut = &rs.pipe
	default:
		rs.mrv.Reset(eng, cfg.Core)
		rs.dut = &rs.mrv
	}
	rs.ref.Reset(eng, &rs.imem, &rs.dmemISS, cfg.ISS)
	rs.dut.SetPC(cfg.StartPC)
	rs.ref.SetPC(cfg.StartPC)

	// Sliced symbolic registers: identical symbolic initial values on both
	// sides, installed on x1..xN.
	for i := 1; i <= cfg.NumSymbolicRegs; i++ {
		var v *smt.Term
		if cfg.ConcreteRegs != nil {
			v = ctx.BV(32, uint64(cfg.ConcreteRegs[i]))
		} else {
			name := cachedName(&rs.regNames, "reg_x%d", uint32(i))
			v = eng.MakeSymbolic(name, 32)
			if val, ok := cfg.Pin[name]; ok {
				eng.Assume(ctx.Eq(v, ctx.BV(32, val)))
			}
		}
		rs.dut.SetReg(i, v)
		rs.ref.SetReg(i, v)
	}

	if cfg.SymbolicInterrupts {
		rs.irq.eng, rs.irq.pin, rs.irq.vars = eng, cfg.Pin, emptied(rs.irq.vars)
		if aware, ok := rs.dut.(IrqAware); ok {
			aware.SetIrqSource(&rs.irq)
		}
		rs.ref.SetIrqSource(&rs.irq)

		mst := makePinned(eng, cfg.Pin, "csr_mstatus", 32)
		mie := makePinned(eng, cfg.Pin, "csr_mie", 32)
		if csrInit, ok := rs.dut.(CSRInitializer); ok {
			csrInit.SetCSR(riscv.CSRMStatus, mst)
			csrInit.SetCSR(riscv.CSRMIe, mie)
		}
		rs.ref.SetCSR(riscv.CSRMStatus, mst)
		rs.ref.SetCSR(riscv.CSRMIe, mie)
	}

	rs.checker = *rvfi.NewChecker(eng)
}

// loop clocks the core until the retired-instruction limit, servicing buses
// and stepping the ISS at every retirement.
func (rs *runState) loop() error {
	eng, cfg := rs.eng, rs.cfg
	h := eng.Obs()

	for ; rs.retired < cfg.InstrLimit; rs.cycles++ {
		if rs.cycles >= cfg.CycleLimit {
			eng.AbortLimitReached(fmt.Sprintf("cycle limit %d reached", cfg.CycleLimit))
		}
		cycles := rs.cycles
		sp := h.Start(obs.PhaseRTLStep)
		ibReq, dbReq := rs.dut.Step(rs.ib, rs.db)
		sp.End()

		// Service the buses; responses arrive at the next clock edge.
		rs.ib = rtl.IBusResponse{}
		rs.db = rtl.DBusResponse{}
		if ibReq.FetchEnable {
			if !ibReq.Address.IsConst() {
				panic("cosim: IBus address must be concrete on each path")
			}
			addr := uint32(ibReq.Address.ConstVal())
			rs.ib = rtl.IBusResponse{InstructionReady: true, Instruction: rs.imem.Fetch(addr)}
			if cfg.Trace != nil {
				fmt.Fprintf(cfg.Trace, "cycle %3d  ibus fetch  addr=0x%08x\n", cycles, addr)
			}
		}
		if dbReq.Enable {
			rs.db = rs.dmemRTL.ServeDBus(dbReq)
			if cfg.Trace != nil {
				dir := "load "
				if dbReq.Write {
					dir = "store"
				}
				fmt.Fprintf(cfg.Trace, "cycle %3d  dbus %s  addr=%s strobe=%04b\n",
					cycles, dir, termStr(dbReq.Address), dbReq.WrStrobe)
			}
		}

		if ret := rs.dut.Retirement(); ret.Valid {
			if cfg.Trace != nil {
				fmt.Fprintf(cfg.Trace, "cycle %3d  retire #%d  pc=%s insn=%s next=%s trap=%v\n",
					cycles, ret.Order, termStr(ret.PCRData), termStr(ret.Insn), termStr(ret.PCWData), ret.Trap)
			}
			issSp := h.Start(obs.PhaseISSStep)
			res := rs.ref.Step()
			issSp.End()
			if m := rs.checker.Compare(ret, res); m != nil {
				if cfg.Trace != nil {
					fmt.Fprintf(cfg.Trace, "cycle %3d  VOTER MISMATCH: %v\n", cycles, m)
				}
				return m
			}
			rs.retired++
		}
	}
	return nil
}

// termStr renders a term compactly for trace output: hex for constants, the
// expression otherwise.
func termStr(t *smt.Term) string {
	if t == nil {
		return "-"
	}
	if t.IsConst() {
		return fmt.Sprintf("0x%08x", t.ConstVal())
	}
	return t.String()
}

// RunFunc binds a Config into the explorer's RunFunc shape. Its paths draw
// testbenches from a pool and reset them in place, so explorations running
// concurrently may share one RunFunc.
func RunFunc(cfg Config) core.RunFunc {
	cfg = cfg.WithDefaults()
	pool := &sync.Pool{New: func() any { return new(runState) }}
	return func(eng *core.Engine) error {
		rs := pool.Get().(*runState)
		defer pool.Put(rs)
		rs.reset(eng, cfg)
		return rs.loop()
	}
}

// IrqAware is satisfied by DUTs that model the external interrupt line.
type IrqAware interface {
	SetIrqSource(src rvfi.IrqSource)
}

// CSRInitializer is satisfied by DUTs whose CSR storage the testbench can
// pre-initialise (symbolic machine state).
type CSRInitializer interface {
	SetCSR(addr uint16, v *smt.Term)
}

// IrqLine is the symbolic external-interrupt input: one cached 1-bit
// variable per instruction slot, shared by both models.
type IrqLine struct {
	eng   *core.Engine
	pin   smt.MapEnv
	vars  map[uint64]*smt.Term
	names map[uint64]string // variable names, kept across resets
}

// Line returns the (cached) interrupt-line value for an instruction slot.
func (l *IrqLine) Line(slot uint64) *smt.Term {
	if v, ok := l.vars[slot]; ok {
		return v
	}
	v := makePinned(l.eng, l.pin, cachedName(&l.names, "irq_%d", slot), 1)
	l.vars[slot] = v
	return v
}

// makePinned creates a named symbolic input, honouring replay pins.
func makePinned(eng *core.Engine, pin smt.MapEnv, name string, width int) *smt.Term {
	v := eng.MakeSymbolic(name, width)
	if val, ok := pin[name]; ok {
		ctx := eng.Context()
		eng.Assume(ctx.Eq(v, ctx.BV(width, val)))
	}
	return v
}

// pinFilter constrains freshly generated instruction words to their pinned
// values, matching by the symbolic variable name the instruction memory
// assigns.
func pinFilter(pin smt.MapEnv) InstrFilter {
	return func(eng *core.Engine, word *smt.Term) {
		if val, ok := pin[word.Name()]; ok {
			ctx := eng.Context()
			eng.Assume(ctx.Eq(word, ctx.BV(32, val)))
		}
	}
}

// ReplayOptions bound a replay exploration: a fully pinned vector collapses
// to one path; 16 paths bound partial vectors.
var ReplayOptions = core.Options{StopOnFirstFinding: true, MaxPaths: 16}

// Replay re-executes the co-simulation with every symbolic input pinned to
// the given test vector (a Finding's Inputs or a TestVector's Inputs). It
// returns the checker's mismatch, or nil if the vector reproduces no
// difference. Inputs absent from the vector stay free, so a complete vector
// yields exactly one path. A vector that cannot apply (see CheckVector) is
// an error, never a silent "no mismatch".
func Replay(cfg Config, vector smt.MapEnv) (*rvfi.Mismatch, error) {
	cfg.Pin = vector
	x := core.NewExplorer(RunFunc(cfg))
	rep := x.Explore(ReplayOptions)
	if err := vectorError(x.Context(), vector); err != nil {
		return nil, err
	}
	if len(rep.Findings) == 0 {
		return nil, nil
	}
	if m, ok := rep.Findings[0].Err.(*rvfi.Mismatch); ok {
		return m, nil
	}
	return nil, rep.Findings[0].Err
}

// CheckVector reports the first assignment of a test vector, in name order,
// that cannot apply to the co-simulation cfg describes: a name that matches
// no symbolic input of the replayed paths, or a value wider than its input.
// Pin would silently ignore the first and truncate the second, so a mistyped
// vector would read as "no mismatch reproduced". It explores the pinned
// co-simulation once, bounded like Replay and without a trace.
func CheckVector(cfg Config, vector smt.MapEnv) error {
	cfg.Pin = vector
	cfg.Trace = nil
	x := core.NewExplorer(RunFunc(cfg))
	x.Explore(ReplayOptions)
	return vectorError(x.Context(), vector)
}

// vectorError checks a pinned vector against the symbolic inputs a replay
// created in ctx (every variable of a co-simulation context is one).
func vectorError(ctx *smt.Context, vector smt.MapEnv) error {
	widths := make(map[string]int, len(ctx.Vars()))
	for _, v := range ctx.Vars() {
		widths[v.Name()] = v.Width()
	}
	names := make([]string, 0, len(vector))
	for name := range vector { //symlint:allow determinism -- names are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		val := vector[name]
		w, ok := widths[name]
		if !ok {
			return fmt.Errorf("%s=%x: %s matches no symbolic input of the run", name, val, name)
		}
		if w < 64 && val>>uint(w) != 0 {
			return fmt.Errorf("%s=%x: value is wider than the %d-bit input %s", name, val, w, name)
		}
	}
	return nil
}
