package rvfi

import (
	"fmt"

	"symriscv/internal/core"
	"symriscv/internal/obs"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
)

// MismatchKind classifies what the checker saw disagree.
type MismatchKind uint8

// Mismatch kinds.
const (
	TrapMismatch  MismatchKind = iota // one side trapped, the other did not
	CauseMismatch                     // both trapped with different causes
	PCMismatch                        // next PC differs
	RdMismatch                        // destination register index or value differs
	MemMismatch                       // store effect (presence, address, size or data) differs
)

func (k MismatchKind) String() string {
	switch k {
	case TrapMismatch:
		return "trap-mismatch"
	case CauseMismatch:
		return "cause-mismatch"
	case PCMismatch:
		return "pc-mismatch"
	case RdMismatch:
		return "rd-mismatch"
	case MemMismatch:
		return "mem-mismatch"
	}
	return "mismatch"
}

// Mismatch is the checker's finding: a satisfiable functional difference
// between the RTL core and the reference model, with a concrete witness.
// It implements core.Witnesser so the explorer attaches the counterexample.
type Mismatch struct {
	Kind   MismatchKind
	Detail string

	// Witness assigns every symbolic input; the fields below are the
	// concrete replay of the step under that witness.
	Insn    uint32 // instruction word
	Disasm  string
	PC      uint32
	RTLNext uint32
	ISSNext uint32
	RTLTrap bool
	ISSTrap bool
	RdAddr  int
	RTLRd   uint32
	ISSRd   uint32

	Env smt.MapEnv
}

// Error implements error.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("%s at pc=%#x insn=%#08x (%s): %s", m.Kind, m.PC, m.Insn, m.Disasm, m.Detail)
}

// Witness implements core.Witnesser.
func (m *Mismatch) Witness() smt.MapEnv { return m.Env }

// Checker compares each DUT retirement against the reference-model result,
// raising a Mismatch when any architectural difference is satisfiable under
// the path constraints (§IV-D). It is core-agnostic: any Port implementation
// whose retirements line up with the reference's instruction slots can be
// checked, regardless of how many cycles or pipeline stages produced them.
type Checker struct {
	eng *core.Engine
	ctx *smt.Context
}

// NewChecker returns a checker bound to the engine.
func NewChecker(eng *core.Engine) *Checker {
	return &Checker{eng: eng, ctx: eng.Context()}
}

// Compare checks one retirement against the reference result for the same
// instruction slot. A nil return means no observable difference is
// satisfiable on this path.
func (v *Checker) Compare(ret *Retirement, ref Reference) *Mismatch {
	h := v.eng.Obs()
	defer h.Start(obs.PhaseVoterCompare).End()

	// Trap behaviour is concrete on each path.
	if ret.Trap != ref.Trap {
		return v.finish(ret, ref, TrapMismatch,
			fmt.Sprintf("RTL trap=%v (cause %s), ISS trap=%v (cause %s)",
				ret.Trap, causeStr(ret), ref.Trap, causeStrRef(ref)), nil)
	}
	if ret.Trap && ref.Trap {
		if ret.Cause != ref.Cause {
			return v.finish(ret, ref, CauseMismatch,
				fmt.Sprintf("RTL cause=%s, ISS cause=%s",
					riscv.ExcName(ret.Cause), riscv.ExcName(ref.Cause)), nil)
		}
		// Both trapped identically: compare the trap target PC below.
	}

	// Old and next PC. The old-PC comparison catches control-flow
	// divergence that happened *between* retirements (e.g. one side taking
	// an interrupt, or a pipeline retiring a wrong-path instruction).
	if env, ok := v.differ(h, fieldPC, ret.PCRData, ref.PC); ok {
		return v.finish(ret, ref, PCMismatch, "executed-instruction PCs can differ", env)
	}
	if env, ok := v.differ(h, fieldNextPC, ret.PCWData, ref.NextPC); ok {
		return v.finish(ret, ref, PCMismatch, "next-PC values can differ", env)
	}

	if ret.RdAddr != ref.RdAddr {
		return v.finish(ret, ref, RdMismatch,
			fmt.Sprintf("RTL writes x%d, ISS writes x%d", ret.RdAddr, ref.RdAddr), nil)
	}
	if ret.RdAddr != 0 {
		if env, ok := v.differ(h, fieldRd, ret.RdWData, ref.RdValue); ok {
			return v.finish(ret, ref, RdMismatch,
				fmt.Sprintf("x%d values can differ", ret.RdAddr), env)
		}
	}

	// Memory-write effects (architectural store address, size and data).
	if !ret.Trap {
		rtlWrote := ret.MemWMask != 0
		if rtlWrote != ref.MemWrite {
			return v.finish(ret, ref, MemMismatch,
				fmt.Sprintf("RTL store=%v, ISS store=%v", rtlWrote, ref.MemWrite), nil)
		}
		if rtlWrote {
			if got, want := rtl.Strobe(ret.MemWMask).Bytes(), ref.MemWBytes; got != want {
				return v.finish(ret, ref, MemMismatch,
					fmt.Sprintf("store width %d bytes vs %d bytes", got, want), nil)
			}
			if env, ok := v.differ(h, fieldMemAddr, ret.MemAddr, ref.MemAddr); ok {
				return v.finish(ret, ref, MemMismatch, "store addresses can differ", env)
			}
			if ret.MemWData != nil && ref.MemWData != nil {
				if env, ok := v.differ(h, fieldMemData, ret.MemWData, ref.MemWData); ok {
					return v.finish(ret, ref, MemMismatch, "store data can differ", env)
				}
			}
		}
	}
	return nil
}

// The checker's two counter families on the engine's observability handle,
// one counter per compared field (pc, next_pc, rd, mem_addr, mem_data):
// comparisons settled by pointer equality, and comparisons sent to
// FindWitness.
const (
	CtrEqualPrefix = "rvfi.ptr_equal."
	CtrQueryPrefix = "rvfi.find_witness."
)

// field is one compared retirement field's pair of counter names.
type field struct{ equal, query string }

func newField(name string) field {
	return field{CtrEqualPrefix + name, CtrQueryPrefix + name}
}

var (
	fieldPC      = newField("pc")
	fieldNextPC  = newField("next_pc")
	fieldRd      = newField("rd")
	fieldMemAddr = newField("mem_addr")
	fieldMemData = newField("mem_data")
)

// differ reports whether a and b can differ on the path, with the witness
// when they can, and counts the comparison under f. Hash-consing makes
// identical expressions pointer-equal, so the solver is only consulted for
// syntactically distinct values.
func (v *Checker) differ(h *obs.Handle, f field, a, b *smt.Term) (smt.MapEnv, bool) {
	if a == b {
		h.Add(f.equal, 1)
		return nil, false
	}
	h.Add(f.query, 1)
	return v.eng.FindWitness(v.ctx.Ne(a, b))
}

func causeStr(ret *Retirement) string {
	if !ret.Trap {
		return "-"
	}
	return riscv.ExcName(ret.Cause)
}

func causeStrRef(ref Reference) string {
	if !ref.Trap {
		return "-"
	}
	return riscv.ExcName(ref.Cause)
}

// finish materialises a witness (if not already provided by the deciding
// query) and evaluates both sides' behaviour under it for the report.
func (v *Checker) finish(ret *Retirement, ref Reference, kind MismatchKind, detail string, env smt.MapEnv) *Mismatch {
	if env == nil {
		var ok bool
		env, ok = v.eng.FindWitness(v.ctx.True())
		if !ok {
			// Unreachable: the path constraints are satisfiable by invariant.
			env = smt.MapEnv{}
		}
	}
	m := &Mismatch{
		Kind:    kind,
		Detail:  detail,
		RTLTrap: ret.Trap,
		ISSTrap: ref.Trap,
		RdAddr:  ret.RdAddr,
		Env:     env,
	}
	m.Insn = uint32(evalOr0(ret.Insn, env))
	m.Disasm = riscv.Disasm(m.Insn)
	m.PC = uint32(evalOr0(ret.PCRData, env))
	m.RTLNext = uint32(evalOr0(ret.PCWData, env))
	m.ISSNext = uint32(evalOr0(ref.NextPC, env))
	if ret.RdAddr != 0 {
		m.RTLRd = uint32(evalOr0(ret.RdWData, env))
	}
	if ref.RdAddr != 0 {
		m.ISSRd = uint32(evalOr0(ref.RdValue, env))
	}
	return m
}

func evalOr0(t *smt.Term, env smt.MapEnv) uint64 {
	if t == nil {
		return 0
	}
	v, err := smt.Eval(t, env)
	if err != nil {
		return 0
	}
	return v
}
