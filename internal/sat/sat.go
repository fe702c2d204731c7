// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// in the MiniSat lineage: two-literal watching with blocker literals and a
// dedicated binary-clause fast path, first-UIP conflict analysis, VSIDS
// variable activity with phase saving. Every learnt clause is kept, and a
// search runs until it answers Sat or Unsat: the queries of a co-simulation
// are small enough that no workload restarts, trims its learnt clauses or
// gives up. Clauses live in one pointer-free arena of literal words and are
// named by uint32 offsets; the arena only grows.
//
// Solve decides only the cone of influence of its query (see cone.go):
// variables created with AddGate carry their gate definition, and a call
// assigns the fan-in closure of its assumptions and of every variable that
// occurs in an AddClause clause. Within the cone VSIDS branches on input
// variables: a gate output joins the decision heap when it first takes part
// in a conflict, and before that is left to unit propagation.
//
// The solver is incremental: variables and clauses may be added between calls
// to Solve, and Solve accepts assumption literals that hold only for that
// call. Consecutive Solve calls sharing an assumption prefix reuse the
// propagation work (trail reuse) and the cone of the common prefix. This is
// the backend of the bit-vector solver in internal/solver.
package sat

import (
	"fmt"
	"slices"
)

// Var is a propositional variable index, starting at 0.
type Var int32

// Lit is a literal: variable times two, plus one if negated.
type Lit int32

// MkLit constructs a literal for v, negated if neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal as v3 or ~v3.
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// lbool is a three-valued assignment in the xor encoding: the stored value
// for a variable is 0 (true), 1 (false) or lUndef, and the value of a
// literal is the stored value xor the literal's sign bit — one branch-free
// load in the propagation inner loop. Anything >= lUndef reads as
// unassigned (xor can produce lUndef or lUndef+1).
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

const varDecay = 0.99 // VSIDS activity decay

// Clauses live in one arena of Lit words, MiniSat style, so the clause
// store holds no pointers. A clause is a header word, its literal count,
// then its literals. A cref names a clause by the offset of its header; 0
// names none. No clause is ever deleted, so the arena is the clauses end to
// end.
type cref uint32

const (
	crefBin  = 1 << 31 // in a watcher's ref: binary clause
	noReason = cref(0)
)

// watcher watches a clause for one literal; blocker is another literal of
// the clause, the only other one if ref carries crefBin.
type watcher struct {
	ref     cref
	blocker Lit
}

// Status is the result of a Solve call.
type Status int8

// Solve outcomes.
const (
	Sat Status = iota + 1
	Unsat
)

func (s Status) String() string {
	if s == Sat {
		return "sat"
	}
	return "unsat"
}

// Stats holds cumulative solver counters.
type Stats struct {
	Conflicts    uint64
	Decisions    uint64
	Propagations uint64
	Learnt       uint64 // learnt clauses created
}

// Add accumulates o into s field by field (for merging per-worker solvers).
func (s *Stats) Add(o Stats) {
	s.Conflicts += o.Conflicts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Learnt += o.Learnt
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena   []Lit
	clauses []cref // problem clauses

	watches [][]watcher // indexed by Lit

	assigns  []uint8 // indexed by Var: 0 true, 1 false, >= lUndef unassigned
	level    []int32
	reason   []cref
	phase    []uint8 // saved polarity: 0 positive, 1 negative
	activity []float64
	decision []bool // per var: kept in the decision heap while unassigned and in the cone

	trail    []Lit
	trailLim []int32
	qhead    int

	order  varHeap
	varInc float64

	seen       []bool
	analyzeTmp []Lit
	clearTmp   []Lit // analyze: seen flags to clear
	addTmp     []Lit // clause simplification buffer

	lastAssumps []Lit // previous Solve's assumptions (trail and cone reuse)

	// The standing model: lastSat marks that the previous Solve answered
	// Sat, with stampTick at satTick and satVars variables then. A repeat of
	// its assumptions with neither since changed returns it (Solve).
	lastSat      bool
	satTick      uint64
	satVars      int
	noModelReuse bool // tests: search again instead

	ok bool // false once the clause set is unsat at level 0

	// Gate structure and the current call's cone (see cone.go).
	vflags    []uint8  // per var: gate op, rooted and in-cone bits
	fanin     []Lit    // per var: gate inputs at [3v, 3v+arity)
	cone      []Var    // current cone members, in marking order
	conePos   []int32  // per var: its index in cone while in the cone
	coneLim   []int32  // len(cone) after marking each of lastAssumps
	coneOpen  bool     // a Solve call has opened a cone; before, all vars are in it
	coneFull  bool     // set by a Sat answer, cleared by cancelUntil: every cone variable assigned, the heap empty
	nOpen     int      // cone variables unassigned
	nOutside  int      // assigned variables outside the cone
	posBits   []uint64 // openCone scratch: cone positions to reinsert, as a bitset
	roots     []Var    // rooted variables
	work      []Var    // markCone / evalGate scratch stack
	litStamp  []uint64 // per Lit: gate-value memo of the current answer (ValueOf)
	stampTick uint64   // litStamp value marking the current answer's memo

	stats Stats

	// afterOpenCone, when set, runs at the end of every openCone (tests).
	afterOpenCone func()
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		varInc: 1,
		ok:     true,
		arena:  make([]Lit, 1), // offset 0 is noReason
	}
}

// Stats returns cumulative counters.
func (s *Solver) Stats() Stats { return s.stats }

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar creates a fresh input variable. It joins a Solve call's cone only
// through an assumption, an AddClause clause or a gate that reads it.
func (s *Solver) NewVar() Var { return s.newVar(true) }

func (s *Solver) newVar(decision bool) Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, uint8(lUndef))
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.phase = append(s.phase, 1) // decide negative first
	s.activity = append(s.activity, 0)
	s.decision = append(s.decision, decision)
	s.vflags = append(s.vflags, 0)
	s.conePos = append(s.conePos, 0)
	if !s.coneOpen {
		// Until the first Solve call every variable is in the cone, so
		// level-0 units added before it propagate in full.
		s.vflags[v] = fInCone
		s.conePos[v] = int32(len(s.cone))
		s.cone = append(s.cone, v)
		s.nOpen++
	}
	s.fanin = append(s.fanin, 0, 0, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.litStamp = append(s.litStamp, 0, 0)
	return v
}

func (s *Solver) value(l Lit) lbool {
	return lbool(s.assigns[l>>1] ^ uint8(l&1))
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// AddClause adds a problem clause. It returns false if the clause set became
// trivially unsatisfiable. Adding clauses is only legal between Solve calls
// (the solver backtracks to level 0 automatically). Every variable of the
// clause is rooted: it belongs to the cone of every later Solve call.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	for _, l := range lits {
		if int(l.Var()) >= len(s.assigns) {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		s.root(l.Var())
	}
	return s.addClauseInternal(lits)
}

// addClauseInternal adds a clause without rooting its variables (AddGate's
// Tseitin clauses go through here).
func (s *Solver) addClauseInternal(lits []Lit) bool {
	s.dropModel()
	out, done := s.simplify(lits)
	if done {
		return true
	}
	// Fast path: attach the clause without disturbing the current trail.
	// Incremental callers interleave encoding and solving, and backtracking
	// to level 0 on every added clause would throw away (and then redo) the
	// propagation of the whole assumption prefix on every check.
	if s.decisionLevel() > 0 && s.attachLive(out) {
		return true
	}
	s.cancelUntil(0)
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		s.ok = s.propagate() == noReason
		return s.ok
	}
	s.newClause(out, false)
	return true
}

// simplify copies lits into the reused buffer without duplicates and
// literals false at level 0 (sort-free); done reports a tautology or a
// clause true at level 0. Cancelling to level 0 keeps every level-0
// assignment, so the result holds on both of addClauseInternal's paths.
func (s *Solver) simplify(lits []Lit) (out []Lit, done bool) {
	if cap(s.addTmp) < len(lits) {
		s.addTmp = make([]Lit, 0, 2*len(lits))
	}
	out = s.addTmp[:0]
	for _, l := range lits {
		if s.level[l.Var()] == 0 {
			switch s.value(l) {
			case lTrue:
				return nil, true // satisfied forever
			case lFalse:
				continue // can never help
			}
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l^1 {
				return nil, true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out, false
}

// attachLive adds a simplified clause while a trail is active, without
// backtracking. It reports success; false sends the caller to the level-0
// path (empty or unit, or falsified by the current trail).
//
// Correctness: at attach time at most one watch is false, and when it is,
// the other watched literal is made true (late implication) or already is.
// From then on the standard invariant holds — a watch can only become false
// through a propagate step that processes the clause — so no conflict or
// model error can hide. A backtrack past the implication can leave the
// clause unit without a pending trigger, which delays (never loses) the
// implication: the solver cannot answer Sat with an unassigned variable,
// and assigning the watched literal false processes the clause.
// Out-of-cone implications skipped by propagate leave clauses in the same
// state, with the same argument.
func (s *Solver) attachLive(out []Lit) bool {
	if len(out) < 2 {
		return false // empty or unit: take the level-0 path
	}
	// Find up to two literals not currently false.
	w0, w1 := -1, -1
	for i, l := range out {
		if s.value(l) != lFalse {
			if w0 < 0 {
				w0 = i
			} else {
				w1 = i
				break
			}
		}
	}
	if w0 < 0 {
		return false // falsified by the trail: backtrack and re-add
	}
	if w1 < 0 {
		// Unit under the current trail: watch the deepest false literal, so
		// backtracking unassigns it as early as possible.
		for i, l := range out {
			if i != w0 && (w1 < 0 || s.level[l.Var()] > s.level[out[w1].Var()]) {
				w1 = i
			}
		}
	}
	out[0], out[w0] = out[w0], out[0]
	if w1 == 0 {
		w1 = w0
	}
	out[1], out[w1] = out[w1], out[1]
	c := s.newClause(out, false)
	if s.value(out[1]) == lFalse && s.value(out[0]) >= lUndef {
		// Late implication; the next propagate call picks it up from qhead.
		s.uncheckedEnqueue(out[0], c)
	}
	return true
}

// newClause copies lits into the arena and watches the clause; a problem
// clause is also listed.
func (s *Solver) newClause(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	if !learnt {
		s.clauses = append(s.clauses, c)
	}
	s.arena = append(s.arena, Lit(len(lits)))
	s.arena = append(s.arena, lits...)
	ref := c
	if len(lits) == 2 {
		ref |= crefBin
	}
	l0, l1 := lits[0], lits[1]
	s.watches[l0^1] = append(s.watches[l0^1], watcher{ref, l1})
	s.watches[l1^1] = append(s.watches[l1^1], watcher{ref, l0})
	return c
}

// lits returns clause c's literals, aliasing the arena.
func (s *Solver) lits(c cref) []Lit {
	return s.arena[c+1 : c+1+cref(s.arena[c])]
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	if s.vflags[v]&fInCone != 0 {
		s.nOpen--
	} else {
		s.nOutside++
	}
	s.assigns[v] = uint8(l) & 1
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = uint8(l) & 1
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// noReason. An implied literal whose variable lies outside the current cone
// is not enqueued: the clause keeps watching it, so the implication is only
// delayed until a call whose cone holds the variable assigns it (a wrong
// decision there shows up as a conflict on this clause).
func (s *Solver) propagate() cref {
	assigns, vflags := s.assigns, s.vflags
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++

		ws := s.watches[p]
		kept := ws[:0]
		confl := noReason
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != noReason {
				kept = append(kept, w)
				continue
			}
			bv := lbool(assigns[w.blocker>>1] ^ uint8(w.blocker&1))
			if bv == lTrue {
				kept = append(kept, w)
				continue
			}
			if w.ref&crefBin != 0 {
				// Binary fast path: the blocker is the only other literal,
				// so no watch ever moves — conflict or enqueue directly.
				kept = append(kept, w)
				c := w.ref &^ crefBin
				if bv == lFalse {
					confl = c
					s.qhead = len(s.trail)
					continue
				}
				if vflags[w.blocker>>1]&fInCone == 0 {
					continue
				}
				// Reason clauses keep the implied literal at position 0.
				if lits := s.lits(c); lits[0] != w.blocker {
					lits[0], lits[1] = lits[1], lits[0]
				}
				s.uncheckedEnqueue(w.blocker, c)
				continue
			}
			c := w.ref
			lits := s.lits(c)
			// Ensure the false literal (¬p) is at position 1.
			np := p ^ 1
			if lits[0] == np {
				lits[0], lits[1] = lits[1], np
			}
			first := lits[0]
			if first != w.blocker && lbool(assigns[first>>1]^uint8(first&1)) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if lbool(assigns[lits[k]>>1]^uint8(lits[k]&1)) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1] ^ 1
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if lbool(assigns[first>>1]^uint8(first&1)) == lFalse {
				confl = c
				s.qhead = len(s.trail)
				continue
			}
			if vflags[first>>1]&fInCone == 0 {
				continue
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if confl != noReason {
			return confl
		}
	}
	return noReason
}

// cancelUntil backtracks to decision level lvl, putting the unassigned
// decision variables of the cone into the heap.
func (s *Solver) cancelUntil(lvl int32) {
	s.coneFull = false
	cut := s.unwind(lvl)
	act := s.activity
	for i := len(cut) - 1; i >= 0; i-- {
		if v := cut[i].Var(); s.decision[v] && s.vflags[v]&fInCone != 0 {
			s.order.insert(v, act)
		}
	}
}

// unwind unassigns the trail above decision level lvl and returns the
// unassigned literals; the result aliases the trail's spare capacity, valid
// until the next enqueue.
func (s *Solver) unwind(lvl int32) []Lit {
	if s.decisionLevel() <= lvl {
		return nil
	}
	bound := s.trailLim[lvl]
	cut := s.trail[bound:]
	for _, l := range cut {
		v := l.Var()
		if s.vflags[v]&fInCone != 0 {
			s.nOpen++
		} else {
			s.nOutside--
		}
		s.assigns[v] = uint8(lUndef)
		s.reason[v] = noReason
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
	return cut
}

// varBump raises v's activity. It also makes v a decision variable: a gate
// output that takes part in a conflict is worth branching on. v is assigned
// here, so cancelUntil puts it into the heap when it unassigns it (if it is
// in the cone).
func (s *Solver) varBump(v Var) {
	s.decision[v] = true
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity)
}

func (s *Solver) varDecay() { s.varInc /= varDecay }

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl cref) (learnt []Lit, btLevel int32) {
	learnt = append(s.analyzeTmp[:0], 0) // reserve slot 0 for the asserting literal
	seenCount := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		lits := s.lits(confl)
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.varBump(v)
			if s.level[v] >= s.decisionLevel() {
				seenCount++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail that participates.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		seenCount--
		if seenCount == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.Neg()

	// Remember every flagged literal so the seen flags can be cleared even
	// for literals removed by minimisation below.
	toClear := append(s.clearTmp[:0], learnt[1:]...)
	s.clearTmp = toClear

	// Minimise: drop literals implied by the rest of the clause (local check).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		if r == noReason {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.lits(r)[1:] {
			if !s.seen[q.Var()] && s.level[q.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Clear seen flags for kept literals and compute the backtrack level.
	btLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, q := range toClear {
		s.seen[q.Var()] = false
	}
	s.analyzeTmp = learnt
	return learnt, btLevel
}

// pickBranchLit pops the most active unassigned heap variable and returns it
// in its saved phase, or -1 when the heap is empty.
func (s *Solver) pickBranchLit() Lit {
	act := s.activity
	for {
		v, ok := s.order.removeMax(act)
		if !ok {
			return -1
		}
		if s.assigns[v] >= uint8(lUndef) {
			return Lit(v)<<1 | Lit(s.phase[v])
		}
	}
}

// Solve determines satisfiability of the clause set conjoined with the given
// assumption literals. It assigns only the call's cone (cone.go); on Sat,
// ValueOf/LitValue read a model of every clause, with variables outside the
// cone computed from their gate definitions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	for _, p := range assumptions {
		if int(p.Var()) >= len(s.assigns) {
			panic(fmt.Sprintf("sat: assumption %v references unknown variable", p))
		}
	}

	// A repeat of the previous Sat call, with no clause or variable added
	// since (no dropModel, same variable count), has the standing model as
	// its answer: the search would re-decide the same assignment, every
	// decision taking its saved phase and every propagation forced to its
	// model value.
	if s.lastSat && s.stampTick == s.satTick && len(s.assigns) == s.satVars &&
		slices.Equal(assumptions, s.lastAssumps) && !s.noModelReuse {
		return Sat
	}
	s.lastSat = false

	// Trail and cone reuse: consecutive calls usually share a long
	// assumption prefix (the engine's path constraints grow incrementally).
	// Decision levels 1..k correspond one-to-one to assumptions 0..k-1, so
	// keeping the common prefix skips re-propagating it from scratch, and
	// the cone of the prefix is kept too (openCone). The backtrack leaves the
	// heap alone: openCone rebuilds it, from the unassigned variables alone
	// when the previous answer left the whole cone assigned.
	shared := 0
	for shared < len(assumptions) && shared < len(s.lastAssumps) && s.lastAssumps[shared] == assumptions[shared] {
		shared++
	}
	keep := min(shared, int(s.decisionLevel()))
	s.openCone(assumptions, shared, s.unwind(int32(keep)))
	s.coneFull = false
	s.lastAssumps = append(s.lastAssumps[:0], assumptions...)
	// trailCut records that the trail below the kept prefix changed during
	// this call, so kept assignments may have lost their fan-in.
	trailCut := false

	for {
		confl := s.propagate()
		if confl != noReason {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			trailCut = trailCut || btLevel < int32(keep)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noReason)
			} else {
				c := s.newClause(learnt, true)
				s.stats.Learnt++
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varDecay()
			continue
		}

		// Enqueue pending assumptions, one decision level each.
		next := Lit(-1)
		for int(s.decisionLevel()) < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Dummy level so indices line up.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			default:
				next = p
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			next = s.pickBranchLit()
			if next == -1 {
				if !s.coneComplete(trailCut) {
					trailCut = false
					continue
				}
				s.dropModel()
				s.lastSat, s.satTick, s.satVars = true, s.stampTick, len(s.assigns)
				s.coneFull = true
				return Sat
			}
			s.stats.Decisions++
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(next, noReason)
	}
}

// ValueOf returns the model value of v after a Sat answer. A variable the
// answer left unassigned reads its gate definition over the values of its
// fan-in (memoised per answer), or false if it is an input.
func (s *Solver) ValueOf(v Var) bool {
	if a := s.assigns[v]; a < uint8(lUndef) {
		return a == uint8(lTrue)
	}
	if s.vflags[v]&opMask == 0 {
		return false
	}
	return s.evalGate(v)
}

// LitValue returns the model value of literal l after a Sat answer.
func (s *Solver) LitValue(l Lit) bool {
	return s.ValueOf(l.Var()) != l.Sign()
}

// varHeap is an indexed max-heap ordered by variable activity. The activity
// slice is passed into each operation so the hot comparison needs no pointer
// chase.
type varHeap struct {
	heap    []Var
	indices []int32 // position+1 in heap; 0 = absent
}

func (h *varHeap) insert(v Var, act []float64) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = int32(len(h.heap))
	h.up(len(h.heap)-1, act)
}

// clear empties the heap.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.indices[v] = 0
	}
	h.heap = h.heap[:0]
}

func (h *varHeap) update(v Var, act []float64) {
	if int(v) < len(h.indices) && h.indices[v] != 0 {
		h.up(int(h.indices[v])-1, act)
	}
}

func (h *varHeap) removeMax(act []float64) (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if last > 0 {
		h.down(0, act)
	}
	return v, true
}

func (h *varHeap) up(i int, act []float64) {
	v := h.heap[i]
	av := act[v]
	for i > 0 {
		p := (i - 1) / 2
		if av <= act[h.heap[p]] {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = int32(i + 1)
		i = p
	}
	h.heap[i] = v
	h.indices[v] = int32(i + 1)
}

func (h *varHeap) down(i int, act []float64) {
	v := h.heap[i]
	av := act[v]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h.heap[c+1]] > act[h.heap[c]] {
			c++
		}
		if act[h.heap[c]] <= av {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = int32(i + 1)
		i = c
	}
	h.heap[i] = v
	h.indices[v] = int32(i + 1)
}
