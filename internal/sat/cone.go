package sat

import (
	"fmt"
	"math/bits"
)

// Cone-restricted solving. A Solve call decides only the cone of influence
// of its query: the fan-in closure of its assumptions and of the rooted
// variables, plus the fan-in of any assignment the call inherits whose
// inputs are open. Sat is declared once the cone is assigned; variables
// outside it are read from their gate definitions (ValueOf).
//
// The solver knows gate structure because gates are created through
// AddGate, which records each gate's op and fan-in next to its Tseitin
// clauses. Every variable of an AddClause clause is rooted and belongs to
// every cone, so a pure-CNF instance is solved as a whole.
//
// Why the model as read satisfies every clause: at Sat, (1) every cone
// variable is assigned, (2) every assigned gate has its fan-in assigned, and
// (3) every fully assigned clause is satisfied (propagation has reached a
// fixpoint and no conflict is pending). A gate left unassigned reads its own
// definition, so its Tseitin clauses hold by construction; an assigned one
// has its Tseitin clauses fully assigned by (2), so they hold by (3).
// AddClause clauses contain rooted variables only, which (1) assigns.

// GateOp is the Boolean function of a gate created with AddGate.
type GateOp uint8

// Gate functions. The fan-in of GateMux is (s, t, f) for s ? t : f.
const (
	GateAnd GateOp = 1 + iota
	GateXor
	GateMux
)

func (op GateOp) arity() int {
	if op == GateMux {
		return 3
	}
	return 2
}

// Per-variable bits in Solver.vflags.
const (
	opMask  = 3      // the variable's GateOp; 0 for an input variable
	fRooted = 1 << 2 // occurs in an AddClause clause: in every cone
	fInCone = 1 << 3 // member of the current cone
)

// AddGate creates a variable defined as op over ins, adds the defining
// Tseitin clauses and returns the gate's positive literal. The gate is not
// rooted: a Solve call assigns it only if its cone reaches it, and otherwise
// ValueOf computes it from ins.
func (s *Solver) AddGate(op GateOp, ins ...Lit) Lit {
	if op < GateAnd || op > GateMux || len(ins) != op.arity() {
		panic(fmt.Sprintf("sat: AddGate(%d) with %d inputs", op, len(ins)))
	}
	for _, l := range ins {
		if int(l.Var()) >= len(s.assigns) {
			panic(fmt.Sprintf("sat: gate input %v references unknown variable", l))
		}
	}
	v := s.newVar(false)
	s.vflags[v] |= uint8(op)
	copy(s.fanin[3*int(v):], ins)
	o := MkLit(v, false)
	if !s.ok {
		return o
	}
	a, b := ins[0], ins[1]
	switch op {
	case GateAnd:
		s.addClauseInternal([]Lit{o.Neg(), a})
		s.addClauseInternal([]Lit{o.Neg(), b})
		s.addClauseInternal([]Lit{o, a.Neg(), b.Neg()})
	case GateXor:
		s.addClauseInternal([]Lit{o.Neg(), a, b})
		s.addClauseInternal([]Lit{o.Neg(), a.Neg(), b.Neg()})
		s.addClauseInternal([]Lit{o, a.Neg(), b})
		s.addClauseInternal([]Lit{o, a, b.Neg()})
	case GateMux:
		sel, t, f := ins[0], ins[1], ins[2]
		s.addClauseInternal([]Lit{sel.Neg(), t.Neg(), o})
		s.addClauseInternal([]Lit{sel.Neg(), t, o.Neg()})
		s.addClauseInternal([]Lit{sel, f.Neg(), o})
		s.addClauseInternal([]Lit{sel, f, o.Neg()})
		// Redundant but propagation-strengthening clauses.
		s.addClauseInternal([]Lit{t.Neg(), f.Neg(), o})
		s.addClauseInternal([]Lit{t, f, o.Neg()})
	}
	return o
}

// faninOf returns v's gate inputs (empty for an input variable).
func (s *Solver) faninOf(v Var) []Lit {
	op := GateOp(s.vflags[v] & opMask)
	if op == 0 {
		return nil
	}
	i := 3 * int(v)
	return s.fanin[i : i+op.arity()]
}

// root puts v into every later cone.
func (s *Solver) root(v Var) {
	if s.vflags[v]&fRooted == 0 {
		s.vflags[v] |= fRooted
		s.roots = append(s.roots, v)
	}
}

// openCone starts a Solve call's cone: the fan-in closure of the
// assumptions, the roots and every inherited assignment whose fan-in is
// open. The decision heap is rebuilt from the cone alone: its unassigned
// decision variables, inserted in cone order. Runs after trail reuse has cut
// the trail back to the kept prefix; freed are the literals that cut
// unassigned.
//
// The cone of the first shared assumptions, which equal the previous
// call's, is kept. markCone over a marked set closed under fan-in visits
// exactly the unmarked part of the full traversal, in the same order, and
// gate fan-in never changes; so cutting the cone back to coneLim[shared-1]
// and marking on from there gives the cone a fresh marking would.
//
// When the previous answer was Sat and only this call's own backtrack has
// run since (coneFull), every variable of the kept cone was assigned, so
// its open ones are the freed ones still in it: in cone position order and
// followed by the open part of the new suffix, they are the full scan's
// insertions in the full scan's order, and the heap array comes out the
// same.
func (s *Solver) openCone(assumptions []Lit, shared int, freed []Lit) {
	lim := 0
	if shared > 0 {
		lim = int(s.coneLim[shared-1])
	}
	for _, v := range s.cone[lim:] {
		s.vflags[v] &^= fInCone
		if s.assigns[v] < uint8(lUndef) {
			s.nOutside++
		} else {
			s.nOpen--
		}
	}
	s.cone = s.cone[:lim]
	s.coneLim = s.coneLim[:shared]
	s.coneOpen = true
	for _, p := range assumptions[shared:] {
		s.markCone(p.Var())
		s.coneLim = append(s.coneLim, int32(len(s.cone)))
	}
	for _, v := range s.roots {
		s.markCone(v)
	}
	s.markOpenFanin()
	s.order.clear()
	from := s.cone
	if s.coneFull {
		// Visit the open prefix positions in order through a bitset, which
		// is all zero between calls.
		n := (lim + 63) / 64
		if len(s.posBits) < n {
			s.posBits = append(s.posBits, make([]uint64, n-len(s.posBits))...)
		}
		for _, l := range freed {
			if v := l.Var(); s.decision[v] && s.vflags[v]&fInCone != 0 && int(s.conePos[v]) < lim {
				p := s.conePos[v]
				s.posBits[p>>6] |= 1 << (p & 63)
			}
		}
		for w, b := range s.posBits[:n] {
			for ; b != 0; b &= b - 1 {
				s.order.insert(s.cone[w<<6|bits.TrailingZeros64(b)], s.activity)
			}
			s.posBits[w] = 0
		}
		from = s.cone[lim:]
	}
	for _, v := range from {
		if s.decision[v] && s.assigns[v] >= uint8(lUndef) {
			s.order.insert(v, s.activity)
		}
	}
	if s.afterOpenCone != nil {
		s.afterOpenCone()
	}
}

// markCone adds v and its fan-in closure to the cone.
func (s *Solver) markCone(v Var) {
	if s.vflags[v]&fInCone != 0 {
		return
	}
	s.vflags[v] |= fInCone
	work := append(s.work[:0], v)
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		s.conePos[u] = int32(len(s.cone))
		s.cone = append(s.cone, u)
		if s.assigns[u] < uint8(lUndef) {
			s.nOutside--
		} else {
			s.nOpen++
		}
		for _, l := range s.faninOf(u) {
			if w := l.Var(); s.vflags[w]&fInCone == 0 {
				s.vflags[w] |= fInCone
				work = append(work, w)
			}
		}
	}
	s.work = work
}

// markOpenFanin adds to the cone every assigned gate outside it with an
// unassigned input, so the input is decided and the gate's definition holds
// in the model. The trail is scanned only when some assigned variable lies
// outside the cone (nOutside), which is rare: the kept trail was mostly
// assigned under cones that the current one extends.
func (s *Solver) markOpenFanin() {
	if s.nOutside == 0 {
		return
	}
	for _, l := range s.trail {
		v := l.Var()
		if s.vflags[v]&fInCone != 0 {
			continue
		}
		for _, in := range s.faninOf(v) {
			if s.assigns[in.Var()] >= uint8(lUndef) {
				s.markCone(v)
				break
			}
		}
	}
}

// coneComplete reports whether the assignment is a complete answer: every
// cone variable assigned and, when a backjump cut the trail below the kept
// prefix (trailCut), every assigned gate's fan-in assigned. Otherwise it
// makes the open variables decision variables and puts them in the heap. A
// cone variable is open when its implication was skipped while it was
// outside an earlier cone and the trigger lies in the kept trail, or when
// backtracking unassigned an inherited gate's fan-in.
//
// The cone is scanned only when some cone variable is unassigned (nOpen);
// the scan then inserts them in cone order, as before.
func (s *Solver) coneComplete(trailCut bool) bool {
	if trailCut {
		s.markOpenFanin()
	}
	if s.nOpen == 0 {
		return true
	}
	done := true
	for _, v := range s.cone {
		if s.assigns[v] >= uint8(lUndef) {
			s.decision[v] = true
			s.order.insert(v, s.activity)
			done = false
		}
	}
	return done
}

// dropModel starts a fresh gate-value memo for ValueOf; called when a new
// answer is produced or the clause set changes.
func (s *Solver) dropModel() { s.stampTick++ }

// evalGate computes the model value of the unassigned gate v from its
// fan-in, memoising every gate it evaluates in litStamp: the positive
// literal's stamp marks true, the negative one's false.
func (s *Solver) evalGate(v Var) bool {
	t := s.stampTick
	// read returns the value of l if it is known without evaluation.
	read := func(l Lit) (val, ok bool) {
		u := l.Var()
		switch {
		case s.assigns[u] < uint8(lUndef):
			val = s.assigns[u] == uint8(lTrue)
		case s.vflags[u]&opMask == 0:
			val = false
		case s.litStamp[2*u] == t:
			val = true
		case s.litStamp[2*u+1] == t:
			val = false
		default:
			return false, false
		}
		return val != l.Sign(), true
	}
	work := append(s.work[:0], v)
	for len(work) > 0 {
		u := work[len(work)-1]
		if _, ok := read(MkLit(u, false)); ok {
			work = work[:len(work)-1]
			continue
		}
		ins := s.faninOf(u)
		var in [3]bool
		ready := true
		for i, l := range ins {
			val, ok := read(l)
			if !ok {
				work = append(work, l.Var())
				ready = false
			}
			in[i] = val
		}
		if !ready {
			continue
		}
		work = work[:len(work)-1]
		var val bool
		switch GateOp(s.vflags[u] & opMask) {
		case GateAnd:
			val = in[0] && in[1]
		case GateXor:
			val = in[0] != in[1]
		case GateMux:
			val = in[2]
			if in[0] {
				val = in[1]
			}
		}
		s.litStamp[MkLit(u, !val)] = t
	}
	s.work = work
	return s.litStamp[2*v] == t
}
