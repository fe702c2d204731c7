// Package core implements the symbolic execution engine at the heart of the
// verification methodology: the KLEE-role component that drives a
// deterministic program (here: the processor co-simulation) over symbolic
// values, forks at symbolic branches, prunes infeasible paths with the QF_BV
// solver, and emits concrete test vectors.
//
// # Execution model
//
// A path is a sequence of events: Boolean branch decisions and
// concretization choices. The Explorer re-runs the program from the start
// for every path, replaying a recorded event prefix and flipping its final
// branch (replay-based forking, in the spirit of execution-generated
// testing). The program must be deterministic given the engine's answers:
// all control decisions over symbolic data must flow through Branch/BranchBool
// and all concrete extractions through Concretize.
//
// One smt.Context and one incremental solver are shared by every path of an
// exploration. Program determinism means re-created terms intern to the very
// same objects, so the solver's CNF encoding and learned clauses carry over
// between paths — this is what makes thousands of per-path feasibility
// queries affordable.
package core

import (
	"fmt"

	"symriscv/internal/obs"
	"symriscv/internal/querycache"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// AbortReason classifies why a path stopped before its program returned.
type AbortReason uint8

// Abort reasons.
const (
	AbortNone       AbortReason = iota
	AbortInfeasible             // flipped branch or Assume contradicts the path constraints
	AbortLimit                  // execution-controller limit reached mid-step
)

func (r AbortReason) String() string {
	switch r {
	case AbortInfeasible:
		return "infeasible"
	case AbortLimit:
		return "limit"
	}
	return "none"
}

// abortError is the panic sentinel used to unwind a path.
type abortError struct {
	reason AbortReason
	msg    string
}

func (a abortError) Error() string { return fmt.Sprintf("path abort (%s): %s", a.reason, a.msg) }

type eventKind uint8

const (
	evBranch eventKind = iota
	evConcretize
)

// event is one recorded engine interaction on a path. The cond/term fields
// are replay sanity checks only; they are nil in prefixes imported from
// another exploration context (parallel subtree hand-off), where program
// determinism is trusted instead of pointer-checked.
type event struct {
	kind eventKind
	dir  bool      // branch direction taken
	val  uint64    // concretization value chosen
	cond *smt.Term // branch condition (unpolarised) — replay sanity check
	term *smt.Term // concretised term — replay sanity check
	// noSibling marks a branch whose other direction is already known
	// infeasible, so the explorer must not schedule it.
	noSibling bool
	// sibVerified marks a branch whose other direction was already proven
	// feasible when the branch was taken, so the sibling replay can skip its
	// feasibility check.
	sibVerified bool
	// sibModel, when non-nil, is the model that proved the other direction
	// feasible. It seeds the sibling path's stack cache (querycache): the
	// model satisfies the sibling's entire replayed constraint prefix, so
	// every branch condition it satisfies during that path resolves without
	// a solver query. Models are immutable.
	sibModel querycache.VarModel
}

// Engine is the per-path symbolic execution interface handed to the program
// under exploration. Methods panic with an internal sentinel to unwind the
// path; the Explorer recovers it. An Engine is only valid during the Run
// callback it was created for.
type Engine struct {
	ctx *smt.Context
	sol *solver.Solver

	prefix []event    // events to replay; the last one is the flipped branch
	n      int        // events seen so far on this run (replayed + fresh)
	onPath *pathMarks // the path constraints, symbolic inputs and fresh events

	instrRetired uint64
	cycles       uint64

	// noOpt disables the implication shortcut and eager sibling checks
	// (Options.NoBranchOptimizations — the engine ablation).
	noOpt bool

	// qc, when non-nil, is the query-elimination layer all feasibility
	// queries route through (Options.NoQueryCache disables it).
	qc *querycache.Local

	// h is the owning worker's observability handle (nil when disabled).
	// It is exposed to the program under exploration via Obs so the
	// co-simulation can open rtl-step/iss-step/voter-compare spans.
	h *obs.Handle

	stats *Stats
}

// pathMarks holds one path's constraints: terms in order, and the same
// terms as a set, an epoch stamp per term ID-1 (the implication shortcut and
// dedup lookups). It also holds the path's symbolic inputs, the variables
// created via MakeSymbolic, in first-use order, and its fresh events, those
// recorded beyond the replayed prefix. An Explorer reuses one for
// every path; begin empties it, keeping the tables' storage, so whatever
// outlives the path (the walker's scheduled siblings) must be copied out.
type pathMarks struct {
	terms    []*smt.Term
	symbolic []*smt.Term
	fresh    []event
	mark     []uint32
	epoch    uint32
}

// begin empties the set, clearing the table when the epoch wraps around.
func (m *pathMarks) begin() {
	m.terms = m.terms[:0]
	m.symbolic = m.symbolic[:0]
	m.fresh = m.fresh[:0]
	m.epoch++
	if m.epoch == 0 {
		clear(m.mark)
		m.epoch = 1
	}
}

// has reports whether t is in the set (never for IDs beyond the table).
func (m *pathMarks) has(t *smt.Term) bool {
	return int(t.ID()) <= len(m.mark) && m.mark[t.ID()-1] == m.epoch
}

// add appends t to the path, growing the table geometrically.
func (m *pathMarks) add(t *smt.Term) {
	m.terms = append(m.terms, t)
	if n := int(t.ID()); n > len(m.mark) {
		m.mark = append(m.mark, make([]uint32, n-len(m.mark))...)
	}
	m.mark[t.ID()-1] = m.epoch
}

// reset starts e on one path replaying prefix, clearing every field the
// previous path set; an Explorer reuses one Engine for all its paths.
// imported is the seed model, by variable name, of a prefix imported from
// another context (Explorer.AddPrefix); nil otherwise.
func (e *Engine) reset(ctx *smt.Context, sol *solver.Solver, prefix []event, imported querycache.Model, stats *Stats, qc *querycache.Local, onPath *pathMarks) {
	onPath.begin()
	*e = Engine{
		ctx:    ctx,
		sol:    sol,
		prefix: prefix,
		onPath: onPath,
		qc:     qc,
		stats:  stats,
	}
	if qc != nil {
		var seed querycache.VarModel
		if n := len(prefix); n > 0 {
			// The last prefix event is the flipped branch; its sibModel (when
			// captured) satisfies exactly this path's replayed constraints.
			seed = prefix[n-1].sibModel
		}
		qc.BeginPath(seed, imported)
	}
}

// Context returns the shared term context.
func (e *Engine) Context() *smt.Context { return e.ctx }

// Obs returns the worker's observability handle, nil when disabled. All
// Span/Handle methods are nil-safe, so callers instrument unconditionally.
func (e *Engine) Obs() *obs.Handle { return e.h }

// MakeSymbolic returns the named symbolic bit-vector. Names must be chosen
// deterministically by the program (e.g. derived from a memory address) so
// replays re-create identical terms. Creating the same name twice returns
// the same variable.
func (e *Engine) MakeSymbolic(name string, width int) *smt.Term {
	v := e.ctx.Var(name, width)
	for _, s := range e.onPath.symbolic {
		if s == v {
			return v
		}
	}
	e.onPath.symbolic = append(e.onPath.symbolic, v)
	return v
}

// SymbolicInputs returns the variables registered through MakeSymbolic on
// this path, in first-use order. The slice is reused by the next path.
func (e *Engine) SymbolicInputs() []*smt.Term { return e.onPath.symbolic }

// PathConstraints returns the constraints accumulated so far.
func (e *Engine) PathConstraints() []*smt.Term {
	return append([]*smt.Term(nil), e.onPath.terms...)
}

// Assume adds the condition to the path constraints, aborting the path if it
// is (or makes the path) infeasible — the klee_assume analogue.
func (e *Engine) Assume(cond *smt.Term) {
	if v, ok := cond.IsBoolConst(); ok {
		if !v {
			panic(abortError{AbortInfeasible, "assume(false)"})
		}
		return
	}
	switch e.checkFeasible(cond) {
	case solver.Sat:
		// Assumptions replayed from the prefix were part of the scheduling
		// run too, so the seed model is known to satisfy them.
		e.addPC(cond, e.n < len(e.prefix))
	case solver.Unsat:
		panic(abortError{AbortInfeasible, "assumption contradicts path: " + cond.String()})
	}
}

// Branch resolves the Boolean condition on this path, forking the
// exploration when both directions are feasible. It returns the direction
// taken; the path constraints are extended accordingly.
func (e *Engine) Branch(cond *smt.Term) bool {
	if !cond.IsBool() {
		panic("core: Branch on bit-vector term")
	}
	if v, ok := cond.IsBoolConst(); ok {
		return v // concrete control: no decision recorded
	}
	// Implication shortcut: conditions already entailed syntactically by a
	// path constraint (typically the other model's identical decode
	// condition) resolve without a decision, a solver query, or a fork.
	// neg, the negated condition, is built once per branch, where the
	// shortcut first needs it (or, without the shortcut, where a direction
	// first does).
	var neg *smt.Term
	if !e.noOpt {
		if e.onPath.has(cond) {
			return true
		}
		if neg = e.ctx.BNot(cond); e.onPath.has(neg) {
			return false
		}
	}

	idx := e.n
	if idx < len(e.prefix) {
		// Replay. Imported prefixes carry no cond (built in another term
		// context); program determinism guarantees the rebuilt condition is
		// the same decision, so only same-context prefixes are pointer-checked.
		ev := e.prefix[idx]
		if ev.kind != evBranch || (ev.cond != nil && ev.cond != cond) {
			panic(fmt.Sprintf("core: replay divergence at event %d: program is not deterministic (have %v)", idx, ev.kind))
		}
		e.n++
		if ev.dir {
			e.addPC(cond, true)
		} else {
			if neg == nil {
				neg = e.ctx.BNot(cond)
			}
			e.addPC(neg, true)
		}
		if idx == len(e.prefix)-1 && !ev.sibVerified {
			// This is the freshly flipped decision and its feasibility could
			// not be proven when it was scheduled: verify it now.
			if e.checkFeasible(nil) == solver.Unsat {
				panic(abortError{AbortInfeasible, "flipped branch infeasible"})
			}
		}
		return ev.dir
	}

	// Fresh decision: try true first; its satisfiability check keeps the
	// path-constraint invariant (pcs always satisfiable). The other
	// direction is checked eagerly: on the forced chains of a decode most
	// branches have exactly one feasible direction, and proving the sibling
	// infeasible here avoids scheduling (and re-running) a dead path.
	e.stats.Branches++
	switch e.checkFeasible(cond) {
	case solver.Sat:
		ev := event{kind: evBranch, dir: true, cond: cond}
		if !e.noOpt {
			res, sib := e.checkSibling(neg)
			switch res {
			case solver.Unsat:
				ev.noSibling = true
			case solver.Sat:
				ev.sibVerified = true
				ev.sibModel = sib
			}
		}
		e.onPath.fresh = append(e.onPath.fresh, ev)
		e.n++
		e.addPC(cond, false)
		return true
	default:
		// pcs are satisfiable and pcs∧cond is not, so pcs∧¬cond is.
		e.onPath.fresh = append(e.onPath.fresh, event{kind: evBranch, dir: false, cond: cond, noSibling: true})
		e.n++
		if neg == nil {
			neg = e.ctx.BNot(cond)
		}
		e.addPC(neg, false)
		return false
	}
}

// BranchEq is a convenience for Branch(a == b).
func (e *Engine) BranchEq(a, b *smt.Term) bool { return e.Branch(e.ctx.Eq(a, b)) }

// Concretize picks a concrete value for the term that is consistent with the
// path constraints, records it as a constraint (t == value), and returns it.
// Constants short-circuit without a solver call.
func (e *Engine) Concretize(t *smt.Term) uint64 {
	if t.IsBool() {
		panic("core: Concretize on Boolean term")
	}
	if t.IsConst() {
		return t.ConstVal()
	}

	idx := e.n
	if idx < len(e.prefix) {
		ev := e.prefix[idx]
		if ev.kind != evConcretize || (ev.term != nil && ev.term != t) {
			panic(fmt.Sprintf("core: replay divergence at event %d: expected concretization", idx))
		}
		e.n++
		e.addPC(e.ctx.Eq(t, e.ctx.BV(t.Width(), ev.val)), true)
		return ev.val
	}

	e.stats.Concretizations++
	if e.checkModel(nil, false) == solver.Unsat {
		// Unreachable if the invariant holds; treat defensively.
		panic(abortError{AbortInfeasible, "concretize: path constraints unsatisfiable"})
	}
	v := e.sol.ModelValue(t)
	e.onPath.fresh = append(e.onPath.fresh, event{kind: evConcretize, val: v, term: t})
	e.n++
	e.addPC(e.ctx.Eq(t, e.ctx.BV(t.Width(), v)), false)
	return v
}

// FindWitness reports whether cond is satisfiable together with the path
// constraints and, if so, returns a model over this path's symbolic inputs
// (variables never registered through MakeSymbolic read as zero, matching
// the solver's treatment of unconstrained variables). This is the voter's
// mismatch query: it does not alter the path constraints.
func (e *Engine) FindWitness(cond *smt.Term) (smt.MapEnv, bool) {
	if v, ok := cond.IsBoolConst(); ok {
		if !v {
			return nil, false
		}
		// Trivially true: any model of the path constraints witnesses it.
		if e.checkModel(nil, false) != solver.Sat {
			return nil, false
		}
		return e.sol.ModelFor(e.onPath.symbolic), true
	}
	if e.qc != nil {
		e.stats.SolverQueries++
		res, env := e.qc.CheckWitness(cond)
		if res == solver.Sat {
			if env != nil {
				return e.witnessEnv(env), true
			}
			return e.sol.ModelFor(e.onPath.symbolic), true
		}
		return nil, false
	}
	if e.check(append(e.onPath.terms, cond)...) == solver.Sat {
		return e.sol.ModelFor(e.onPath.symbolic), true
	}
	return nil, false
}

// witnessEnv restricts a cache-provided model to this path's symbolic
// inputs, with the same zero default for unconstrained variables as the
// solver's model extraction.
func (e *Engine) witnessEnv(m querycache.VarModel) smt.MapEnv {
	out := make(smt.MapEnv, len(e.onPath.symbolic))
	for _, v := range e.onPath.symbolic {
		out[v.Name()] = m.Value(v)
	}
	return out
}

// PathModel returns a model of the current path's symbolic inputs, used to
// turn a completed path into a concrete test vector. The model is restricted
// to the inputs registered via MakeSymbolic — O(symbolic inputs) rather than
// O(every variable the context ever interned). It is the path's last query:
// the query cache does not keep its model for later stack hits.
func (e *Engine) PathModel() (smt.MapEnv, bool) {
	if e.checkModel(nil, true) != solver.Sat {
		return nil, false
	}
	return e.sol.ModelFor(e.onPath.symbolic), true
}

// CountInstruction records n retired instructions (for the experiment
// statistics mirroring the paper's executed-instruction counts).
func (e *Engine) CountInstruction(n uint64) { e.instrRetired += n }

// CountCycle records n simulated clock cycles.
func (e *Engine) CountCycle(n uint64) { e.cycles += n }

// AbortLimitReached unwinds the path marking it partially explored; the
// execution controller calls this when a hard mid-step limit trips.
func (e *Engine) AbortLimitReached(msg string) {
	panic(abortError{AbortLimit, msg})
}

// addPC appends a constraint to the path. trusted marks replayed
// constraints: the query-cache seed model is known to satisfy them by
// program determinism, so its revalidation is skipped. Terms already on the
// path (hash-consing makes this a mark-table lookup) are skipped: the
// constraint conjunction is unchanged and every later solver call gets a
// shorter assumption vector.
func (e *Engine) addPC(t *smt.Term, trusted bool) {
	if e.onPath.has(t) {
		return
	}
	e.onPath.add(t)
	if e.qc != nil {
		e.qc.Observe(t, trusted)
	}
}

func (e *Engine) check(assumptions ...*smt.Term) solver.Result {
	e.stats.SolverQueries++
	return e.sol.Check(assumptions...)
}

// checkFeasible answers satisfiability of the path constraints plus the
// optional query condition (nil: the flip check over pcs alone), routing
// through the query-elimination layer when enabled. SolverQueries counts the
// engine-issued query either way, so the statistic is cache-independent.
func (e *Engine) checkFeasible(query *smt.Term) solver.Result {
	e.stats.SolverQueries++
	if e.qc != nil {
		return e.qc.CheckFeasible(query)
	}
	if query != nil {
		return e.sol.Check(append(e.onPath.terms, query)...)
	}
	return e.sol.Check(e.onPath.terms...)
}

// checkSibling is the eager sibling-feasibility query; with the cache
// enabled a Sat answer may carry the model that proves it, which seeds the
// sibling path's stack cache.
func (e *Engine) checkSibling(neg *smt.Term) (solver.Result, querycache.VarModel) {
	e.stats.SolverQueries++
	if e.qc != nil {
		return e.qc.CheckSibling(neg)
	}
	return e.sol.Check(append(e.onPath.terms, neg)...), nil
}

// checkModel answers satisfiability guaranteeing a pass-through to the
// solver, so model values can be read afterwards. Model-bearing queries are
// never answered from the cache: the values the engine reads (concretized
// constants, witnesses, test vectors) must not depend on cache state. last
// marks the path's final query, whose model the cache need not keep.
func (e *Engine) checkModel(query *smt.Term, last bool) solver.Result {
	e.stats.SolverQueries++
	if e.qc != nil && last {
		return e.qc.CheckFinalModel(query)
	}
	if e.qc != nil {
		return e.qc.CheckModel(query)
	}
	if query != nil {
		return e.sol.Check(append(e.onPath.terms, query)...)
	}
	return e.sol.Check(e.onPath.terms...)
}
