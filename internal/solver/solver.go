// Package solver provides a QF_BV satisfiability solver on top of the
// bit-blaster and the CDCL SAT core.
//
// A Solver owns one growing SAT instance. Permanent facts are added with
// Assert; Check answers satisfiability of the asserted set conjoined with
// per-call assumption terms. Because the CNF encoding of every term is cached
// and assumptions map to SAT assumption literals, a long series of Check
// calls over overlapping path constraints — the access pattern of the
// symbolic execution engine — reuses all prior encoding and learned-clause
// work.
package solver

import (
	"sync"
	"sync/atomic"

	"symriscv/internal/bitblast"
	"symriscv/internal/obs"
	"symriscv/internal/sat"
	"symriscv/internal/smt"
)

// Result is the outcome of a Check call.
type Result int8

// Check outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Stats holds cumulative solver-facade counters. UnknownAns counts Check
// calls that exhausted the conflict budget without an answer; it is always
// zero when no budget is set.
type Stats struct {
	Checks     uint64
	SatAns     uint64
	UnsatAns   uint64
	UnknownAns uint64
	SAT        sat.Stats
}

// Solver decides QF_BV formulas built in one smt.Context.
//
// Solving itself is single-owner (one goroutine drives Check/CheckCore at
// a time, like the rest of a shard's context), but the facade counters are
// atomics and the SAT-core stats are snapshotted under a mutex after each
// solve, so Stats may be read concurrently by a telemetry sampler while a
// worker is mid-Check.
type Solver struct {
	ctx *smt.Context
	sat *sat.Solver
	bb  *bitblast.Blaster

	lits []sat.Lit // assumption buffer of the current Check / CheckCore

	checks     atomic.Uint64
	satAns     atomic.Uint64
	unsatAns   atomic.Uint64
	unknownAns atomic.Uint64

	satMu   sync.Mutex // guards satSnap
	satSnap sat.Stats

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

// SetObs attaches the owning worker's observability handle; every Check /
// CheckCore then runs under a solver-check span. A nil handle detaches.
func (s *Solver) SetObs(h *obs.Handle) { s.h = h }

// SetConflictBudget bounds the SAT effort of each Check call; 0 removes the
// bound. Exceeding the budget yields Unknown.
func (s *Solver) SetConflictBudget(n uint64) { s.sat.ConflictBudget = n }

// Assert permanently adds the Boolean term t to the solver. Constant terms
// (the usual result of the term constructors folding a path condition) are handled
// without touching the bit-blaster or allocating a clause: true is a no-op,
// false marks the instance trivially unsatisfiable. After asserting false,
// every Check answers Unsat with an empty failed-assumption set (nil core
// from CheckCore), the documented clause-set-level-conflict contract.
func (s *Solver) Assert(t *smt.Term) {
	switch t.Kind() {
	case smt.KTrue:
		return
	case smt.KFalse:
		s.sat.AddClause() // empty clause: trivially unsat
		return
	}
	s.sat.AddClause(s.bb.LitFor(t))
}

// Check reports satisfiability of the asserted facts plus the given
// assumptions. After Sat, Model and ModelValue read the witness.
func (s *Solver) Check(assumptions ...*smt.Term) Result {
	defer s.h.Start(obs.PhaseSolverCheck).End()
	lits := s.assumptionLits(assumptions)
	s.checks.Add(1)
	res := s.sat.Solve(lits...)
	s.snapshotSAT()
	switch res {
	case sat.Sat:
		s.satAns.Add(1)
		return Sat
	case sat.Unsat:
		s.unsatAns.Add(1)
		return Unsat
	}
	s.unknownAns.Add(1)
	return Unknown
}

// CheckCore is Check plus, on Unsat, the subset of assumption terms the
// refutation actually used (an unsat core over the assumptions, from the
// SAT solver's failed-assumption analysis). The core is nil when it is
// unavailable (clause-set-level conflict) — callers must then fall back to
// the full assumption set. The query cache records cores instead of full
// constraint sets, which is what makes its superset-of-unsat rule fire
// across related queries.
func (s *Solver) CheckCore(assumptions ...*smt.Term) (Result, []*smt.Term) {
	defer s.h.Start(obs.PhaseSolverCheck).End()
	lits := s.assumptionLits(assumptions)
	s.checks.Add(1)
	res := s.sat.Solve(lits...)
	s.snapshotSAT()
	switch res {
	case sat.Sat:
		s.satAns.Add(1)
		return Sat, nil
	case sat.Unsat:
		s.unsatAns.Add(1)
		failed := s.sat.FailedAssumptions()
		if len(failed) == 0 {
			return Unsat, nil
		}
		// FailedAssumptions holds the negations of the responsible
		// assumption literals, a handful, so a scan beats a set.
		core := make([]*smt.Term, 0, len(failed))
		for i, t := range assumptions {
			for _, l := range failed {
				if l == lits[i].Neg() {
					core = append(core, t)
					break
				}
			}
		}
		return Unsat, core
	}
	s.unknownAns.Add(1)
	return Unknown, nil
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

// snapshotSAT publishes a copy of the SAT-core counters for concurrent
// Stats readers. Called by the owning goroutine after each solve; the
// copy is a handful of words, negligible next to the solve itself.
func (s *Solver) snapshotSAT() {
	st := s.sat.Stats()
	s.satMu.Lock()
	s.satSnap = st
	s.satMu.Unlock()
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

// Stats returns cumulative counters. Safe to call from any goroutine,
// including concurrently with a Check in flight on the owning worker: the
// facade counters are atomics and the SAT block is the snapshot taken
// after the most recent completed solve.
func (s *Solver) Stats() Stats {
	st := Stats{
		Checks:     s.checks.Load(),
		SatAns:     s.satAns.Load(),
		UnsatAns:   s.unsatAns.Load(),
		UnknownAns: s.unknownAns.Load(),
	}
	s.satMu.Lock()
	st.SAT = s.satSnap
	s.satMu.Unlock()
	return st
}

// NumSATVars exposes the size of the underlying SAT instance (for reporting).
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// NumSATClauses exposes the problem-clause count of the SAT instance.
func (s *Solver) NumSATClauses() int { return s.sat.NumClauses() }
