// Package solver provides a QF_BV satisfiability solver on top of the
// bit-blaster and the CDCL SAT core.
//
// A Solver owns one growing SAT instance, holding only the encodings of the
// terms it has met; Check answers satisfiability of a conjunction of
// per-call assumption terms. Because the CNF encoding of every term is cached
// and assumptions map to SAT assumption literals, a long series of Check
// calls over overlapping path constraints — the access pattern of the
// symbolic execution engine — reuses all prior encoding and learned-clause
// work.
package solver

import (
	"symriscv/internal/bitblast"
	"symriscv/internal/obs"
	"symriscv/internal/sat"
	"symriscv/internal/smt"
)

// Result is the outcome of a Check call.
type Result int8

// Check outcomes.
const (
	Sat Result = iota + 1
	Unsat
)

func (r Result) String() string {
	if r == Sat {
		return "sat"
	}
	return "unsat"
}

// Stats holds cumulative solver-facade counters.
type Stats struct {
	Checks   uint64
	SatAns   uint64
	UnsatAns uint64
	SAT      sat.Stats
}

// Solver decides QF_BV formulas built in one smt.Context. A Solver is not
// safe for concurrent use: one goroutine owns it, like the rest of an
// explorer's context.
type Solver struct {
	ctx *smt.Context
	sat *sat.Solver
	bb  *bitblast.Blaster

	lits []sat.Lit // assumption buffer of the current Check

	checks   uint64
	satAns   uint64
	unsatAns uint64

	h *obs.Handle
}

// New returns a solver for terms of ctx.
func New(ctx *smt.Context) *Solver {
	s := sat.New()
	return &Solver{
		ctx: ctx,
		sat: s,
		bb:  bitblast.New(ctx, s),
	}
}

// Context returns the term context this solver works over.
func (s *Solver) Context() *smt.Context { return s.ctx }

// SetObs attaches the owning worker's observability handle; every Check
// then runs under a solver-check span. A nil handle detaches.
func (s *Solver) SetObs(h *obs.Handle) { s.h = h }

// Check reports satisfiability of the conjunction of the given
// assumptions. After Sat, Model and ModelValue read the witness.
func (s *Solver) Check(assumptions ...*smt.Term) Result {
	defer s.h.Start(obs.PhaseSolverCheck).End()
	lits := s.assumptionLits(assumptions)
	s.checks++
	switch s.sat.Solve(lits...) {
	case sat.Sat:
		s.satAns++
		return Sat
	default:
		s.unsatAns++
		return Unsat
	}
}

// assumptionLits translates the assumptions into the solver's reused literal
// buffer. sat.Solve copies what it keeps, so the buffer is free again once
// the answer is read.
func (s *Solver) assumptionLits(assumptions []*smt.Term) []sat.Lit {
	s.lits = s.lits[:0]
	for _, t := range assumptions {
		s.lits = append(s.lits, s.bb.LitFor(t))
	}
	return s.lits
}

// ModelValue returns the value of t under the model of the last Sat answer.
// Terms that were not part of any checked formula are unconstrained; their
// variables read as zero. Composite terms are evaluated over the variable
// assignment, so any term of the context may be queried.
func (s *Solver) ModelValue(t *smt.Term) uint64 {
	if v, ok := s.bb.ModelValue(t); ok {
		return v
	}
	v, err := smt.Eval(t, s.Model())
	if err != nil {
		// Unreachable: Model binds every variable of the context.
		panic("solver: ModelValue: " + err.Error())
	}
	return v
}

// Model returns a complete assignment for every variable of the context,
// reading encoded variables from the SAT model and defaulting unconstrained
// ones to zero. Valid after a Sat answer.
//
// This walks every variable the context has ever interned — O(context),
// which grows with the whole exploration. New callers almost always want
// ModelFor with the variables they actually care about (a path's symbolic
// inputs, a constraint set's support); reserve Model for offline tooling
// where the context is small.
func (s *Solver) Model() smt.MapEnv {
	return s.ModelFor(s.ctx.Vars())
}

// VarValue returns the SAT-model value of a single variable after a Sat
// answer. ok is false when the variable was never encoded into the SAT
// instance (it is unconstrained; callers conventionally default it to zero).
func (s *Solver) VarValue(v *smt.Term) (uint64, bool) {
	return s.bb.ModelValue(v)
}

// ModelFor returns an assignment restricted to the given variables, reading
// encoded ones from the SAT model and defaulting unconstrained ones to zero.
// Valid after a Sat answer. Where Model walks every variable the context has
// ever interned — O(context), which grows with the whole exploration — this
// is O(len(vars)), so callers that only need the symbolic inputs of one path
// (test-vector extraction, witness filtering) should prefer it.
func (s *Solver) ModelFor(vars []*smt.Term) smt.MapEnv {
	env := make(smt.MapEnv, len(vars))
	for _, v := range vars {
		if val, ok := s.bb.ModelValue(v); ok {
			env[v.Name()] = val
		} else {
			env[v.Name()] = 0
		}
	}
	return env
}

// Stats returns the cumulative counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Checks:   s.checks,
		SatAns:   s.satAns,
		UnsatAns: s.unsatAns,
		SAT:      s.sat.Stats(),
	}
}

// NumSATVars exposes the size of the underlying SAT instance (for reporting).
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }
