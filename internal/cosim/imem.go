package cosim

import (
	"fmt"

	"symriscv/internal/core"
	"symriscv/internal/smt"
)

// InstrFilter constrains freshly generated symbolic instruction words via
// engine assumptions — the paper's klee_assume hook for steering generation
// (e.g. blocking CSR instructions in the error-injection experiments).
type InstrFilter func(eng *core.Engine, word *smt.Term)

// SymbolicIMem is the symbolic instruction memory: read-only, shared between
// the RTL core and the ISS. The word for a fetch address is generated
// symbolically on first access and cached, guaranteeing both models always
// see identical instructions (preventing false mismatches, §IV-C.1).
type SymbolicIMem struct {
	eng      *core.Engine
	words    map[uint32]*smt.Term
	filter   InstrFilter
	concrete func(addr uint32) uint32 // fuzzing mode: concrete generation
}

// NewSymbolicIMem returns an empty instruction memory. filter may be nil.
func NewSymbolicIMem(eng *core.Engine, filter InstrFilter) *SymbolicIMem {
	return &SymbolicIMem{
		eng:    eng,
		words:  make(map[uint32]*smt.Term),
		filter: filter,
	}
}

// Fetch returns the (cached) instruction word at addr, generating a fresh
// constrained symbolic word on first access.
func (m *SymbolicIMem) Fetch(addr uint32) *smt.Term {
	if w, ok := m.words[addr]; ok {
		return w
	}
	if m.concrete != nil {
		w := m.eng.Context().BV(32, uint64(m.concrete(addr)))
		m.words[addr] = w
		return w
	}
	w := m.eng.MakeSymbolic(fmt.Sprintf("imem_%08x", addr), 32)
	if m.filter != nil {
		m.filter(m.eng, w)
	}
	m.words[addr] = w
	return w
}

// Preload pins a concrete instruction at addr (for directed co-simulation
// runs and tests).
func (m *SymbolicIMem) Preload(addr uint32, word uint32) {
	m.words[addr] = m.eng.Context().BV(32, uint64(word))
}

// BlockSystemInstructions is the Table II filter: it excludes the SYSTEM
// opcode (CSR instructions, ECALL/EBREAK/WFI/MRET) from generation, which
// removes the known CSR implementation mismatches from the search space.
func BlockSystemInstructions(eng *core.Engine, word *smt.Term) {
	ctx := eng.Context()
	eng.Assume(ctx.Ne(ctx.And(word, ctx.BV(32, 0x7f)), ctx.BV(32, 0x73)))
}

// OnlyOpcode returns a filter restricting generation to one major opcode —
// the per-class sweep mode of the Table I campaign.
func OnlyOpcode(opcode uint32) InstrFilter {
	return func(eng *core.Engine, word *smt.Term) {
		ctx := eng.Context()
		eng.Assume(ctx.Eq(ctx.And(word, ctx.BV(32, 0x7f)), ctx.BV(32, uint64(opcode&0x7f))))
	}
}

// OnlyMasked returns a filter constraining (word AND mask) == match, the
// general form used to focus the exploration on an instruction subclass.
func OnlyMasked(mask, match uint32) InstrFilter {
	return func(eng *core.Engine, word *smt.Term) {
		ctx := eng.Context()
		eng.Assume(ctx.Eq(ctx.And(word, ctx.BV(32, uint64(mask))), ctx.BV(32, uint64(match))))
	}
}

// Filters composes several filters into one.
func Filters(fs ...InstrFilter) InstrFilter {
	return func(eng *core.Engine, word *smt.Term) {
		for _, f := range fs {
			if f != nil {
				f(eng, word)
			}
		}
	}
}
