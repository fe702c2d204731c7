package sat

import "sort"

// Inprocessing: between searches (Solve entry and restart boundaries, always
// at decision level 0) the solver simplifies its clause database with the
// classic SatELite trio — subsumption, self-subsuming resolution
// (strengthening) and bounded variable elimination (BVE).
//
// Incrementality makes this subtle: callers keep adding clauses and keep
// issuing assumptions over literals handed out earlier, so no variable is
// ever gone for good. Three rules keep the incremental semantics exact:
//
//  1. The current call's assumption variables are frozen for the round, so
//     failed-assumption cores (CheckCore) are computed on an instance where
//     every assumption literal still means what the caller asserted.
//  2. Any later mention of an eliminated variable — in AddClause or as a
//     Solve assumption — restores the variable first: its original clauses
//     (saved on elimStack) are re-added, transitively, before the mention is
//     processed. The solver therefore always answers queries about exactly
//     the instance the caller built.
//  3. Models are extended over eliminated variables (extendModel) before Sat
//     is returned, so ValueOf stays total and model re-checking in
//     internal/solver keeps working unchanged. Only variables that are
//     neither gate outputs nor gate inputs are eliminated, so the clauses
//     extendModel reads mention rooted variables only, which every Sat
//     answer assigns (cone.go).
//
// Learnt clauses mentioning an eliminated variable are deleted rather than
// resolved: they are consequences of the original clause set, so dropping
// them never loses soundness, only a bit of learning.

// Inprocessing limits. Conservative by design: the symbolic-execution
// workload issues thousands of easy incremental solves over a clause set
// that grows by bit-blasting (not by conflict), and a simplification round
// costs a full database pass plus, via variable elimination, a
// restore-on-reuse cycle when the bit-blaster's cached gate literals
// reappear. Rounds are therefore gated on *search effort* (conflicts), not
// on clause growth alone: an instance that keeps answering in a handful of
// conflicts never pays for simplification it does not need, while a
// conflict-heavy instance is simplified repeatedly.
const (
	// simpMinGrowth: a round additionally requires this much clause growth
	// since the previous round (simplifying an unchanged database is free
	// the first time and useless the second).
	simpMinGrowth = 500
	// simpConflictGap: conflicts since the last round required before the
	// next round is due.
	simpConflictGap = 3000
	// subsumeBudget bounds the total literal-comparison work of one
	// subsumption pass.
	subsumeBudget = 4 << 20
	// elimMaxOcc: BVE skips variables occurring more often than this in
	// either polarity, or more than elimMaxTotal in total.
	elimMaxOcc   = 10
	elimMaxTotal = 16
	// elimMaxResolventLen: resolvents longer than this veto the elimination.
	elimMaxResolventLen = 16
)

// elimEntry records one eliminated variable and the original clauses that
// mentioned it (each stored with the v-literal first), for restoration and
// model extension.
type elimEntry struct {
	v        Var
	clauses  [][]Lit
	restored bool
}

// inprocessDue reports whether a simplification round should run now.
func (s *Solver) inprocessDue() bool {
	return s.stats.Conflicts-s.conflictsAtSimp >= simpConflictGap &&
		len(s.clauses)-s.clausesAtSimp >= simpMinGrowth
}

// simplify runs one inprocessing round. Precondition: decision level 0.
// The given assumptions (of the in-flight Solve call) are frozen against
// elimination. On exit the watch lists are rebuilt and level-0 propagation
// has run to completion; s.ok is false if the instance became unsat.
func (s *Solver) simplify(assumptions []Lit) {
	if !s.ok {
		return
	}
	if s.propagate() != nil {
		s.ok = false
		return
	}
	// Level-0 facts need no reasons; clearing them means no reason pointer
	// can dangle into a clause removed below. (analyze never looks at
	// level-0 reasons, analyzeFinal checks level > 0.)
	for _, l := range s.trail {
		s.reason[l.Var()] = nil
	}
	for _, p := range assumptions {
		s.frozen[p.Var()] = true
	}

	s.sweepSatisfied()
	if s.ok {
		occ := s.buildOcc()
		s.subsumePass(occ)
		if s.ok {
			s.eliminatePass(occ)
		}
	}
	if s.ok {
		// An unsat instance stays as it is: it may hold an emptied clause,
		// which cannot be watched.
		s.dropDeadLearnts()
		s.compact()
		s.rebuildWatches()
		s.qhead = 0
		if s.propagate() != nil {
			s.ok = false
		}
	}

	for _, p := range assumptions {
		s.frozen[p.Var()] = false
	}
	s.clausesAtSimp = len(s.clauses)
	s.conflictsAtSimp = s.stats.Conflicts
}

// enqueueSimpUnit records a unit derived during surgery. Watches are stale at
// this point, so propagation is deferred to the rebuild at the end of
// simplify; the assignment itself is visible immediately.
func (s *Solver) enqueueSimpUnit(l Lit) {
	switch s.value(l) {
	case lTrue:
		return
	case lFalse:
		s.ok = false
		return
	}
	s.uncheckedEnqueue(l, nil)
}

// sweepSatisfied removes level-0 satisfied clauses and strips false literals
// from the rest, over both problem and learnt clauses.
func (s *Solver) sweepSatisfied() {
	sweep := func(cs []*clause) {
		for _, c := range cs {
			if c.dead {
				continue
			}
			sat := false
			j := 0
			for _, l := range c.lits {
				switch s.value(l) {
				case lTrue:
					sat = true
				case lFalse:
					continue
				default:
					c.lits[j] = l
					j++
				}
				if sat {
					break
				}
			}
			if sat {
				c.dead = true
				continue
			}
			c.lits = c.lits[:j]
			switch j {
			case 0:
				s.ok = false
				return
			case 1:
				s.enqueueSimpUnit(c.lits[0])
				c.dead = true
				if !s.ok {
					return
				}
			}
		}
	}
	sweep(s.clauses)
	if s.ok {
		sweep(s.learnts)
	}
}

// clauseSig computes the 64-bit occurrence abstraction of a clause: bit
// (var mod 64) per literal. sig(c) &^ sig(d) != 0 proves c ⊄ d.
func clauseSig(lits []Lit) uint64 {
	var sig uint64
	for _, l := range lits {
		sig |= 1 << (uint(l.Var()) & 63)
	}
	return sig
}

// buildOcc builds occurrence lists (live problem clauses per literal) and
// stamps every live clause with its signature. Learnt clauses are excluded:
// they are redundant, so simplifying them buys little and risks much.
func (s *Solver) buildOcc() [][]*clause {
	occ := make([][]*clause, len(s.watches))
	for _, c := range s.clauses {
		if c.dead {
			continue
		}
		c.sig = clauseSig(c.lits)
		for _, l := range c.lits {
			occ[l] = append(occ[l], c)
		}
	}
	return occ
}

// subsumePass runs combined subsumption + self-subsuming resolution over the
// live problem clauses, smallest clauses first (small clauses subsume most).
// Occurrence lists are left stale after strengthening — consumers re-check
// membership — and the whole pass is bounded by subsumeBudget.
func (s *Solver) subsumePass(occ [][]*clause) {
	live := make([]*clause, 0, len(s.clauses))
	for _, c := range s.clauses {
		if !c.dead {
			live = append(live, c)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return len(live[i].lits) < len(live[j].lits) })

	budget := subsumeBudget
	for _, c := range live {
		if budget <= 0 || !s.ok {
			break
		}
		if c.dead || len(c.lits) == 0 {
			continue
		}
		// Scan the occurrence list of c's rarest literal: every clause c
		// subsumes or strengthens via that literal (or its negation for the
		// self-subsuming case on the pivot itself) is in one of the two lists.
		min := c.lits[0]
		for _, l := range c.lits[1:] {
			if len(occ[l]) < len(occ[min]) {
				min = l
			}
		}
		s.backwardSubsume(c, occ[min], &budget)
		if !c.dead && s.ok {
			s.backwardSubsume(c, occ[min.Neg()], &budget)
		}
	}
}

// backwardSubsume checks c against every candidate clause in cands: if c's
// literals all occur in d, d is subsumed; if all but exactly one occur and
// that one occurs negated, d is strengthened by removing the negation
// (self-subsuming resolution).
func (s *Solver) backwardSubsume(c *clause, cands []*clause, budget *int) {
	for _, d := range cands {
		if !s.ok || *budget <= 0 {
			return
		}
		if d == c || d.dead || len(d.lits) < len(c.lits) {
			continue
		}
		if c.sig&^d.sig != 0 {
			continue
		}
		*budget -= len(d.lits) + len(c.lits)

		s.stampTick++
		t := s.stampTick
		for _, l := range d.lits {
			s.litStamp[l] = t
		}
		flipped := Lit(-1)
		ok := true
		for _, l := range c.lits {
			if s.litStamp[l] == t {
				continue
			}
			if s.litStamp[l.Neg()] == t && flipped == -1 {
				flipped = l
				continue
			}
			ok = false
			break
		}
		if !ok {
			continue
		}
		if flipped == -1 {
			d.dead = true
			s.stats.Subsumed++
			continue
		}
		// Strengthen d: drop flipped.Neg().
		rm := flipped.Neg()
		j := 0
		for _, l := range d.lits {
			if l != rm {
				d.lits[j] = l
				j++
			}
		}
		d.lits = d.lits[:j]
		d.sig = clauseSig(d.lits)
		s.stats.Strengthened++
		switch j {
		case 0:
			s.ok = false
			return
		case 1:
			s.enqueueSimpUnit(d.lits[0])
			d.dead = true
		}
	}
}

// eliminatePass performs bounded variable elimination: a variable with few
// occurrences is removed by replacing its clauses with all non-tautological
// resolvents, when that does not grow the database. Frozen (assumption) and
// level-0-assigned variables are skipped, and so are gate outputs and gate
// inputs: a model leaves gates outside the cone unassigned, and extendModel
// must find the other literals of an eliminated variable's clauses assigned
// (they are rooted, hence in every cone); the removed original clauses go
// onto elimStack for restoration and model extension.
func (s *Solver) eliminatePass(occ [][]*clause) {
	for vi := range s.assigns {
		v := Var(vi)
		if !s.ok {
			return
		}
		if s.frozen[v] || s.elimIdx[v] != 0 || s.assigns[v] < uint8(lUndef) ||
			s.vflags[v]&(opMask|fFanin) != 0 {
			continue
		}
		pl, nl := MkLit(v, false), MkLit(v, true)
		pos := liveWith(occ[pl], pl)
		neg := liveWith(occ[nl], nl)
		if len(pos)+len(neg) == 0 {
			continue
		}
		if len(pos) > elimMaxOcc || len(neg) > elimMaxOcc || len(pos)+len(neg) > elimMaxTotal {
			continue
		}

		// Gather resolvents; veto if they outnumber the removed clauses or
		// any grows past the length cap.
		var resolvents [][]Lit
		feasible := true
		for _, a := range pos {
			for _, b := range neg {
				r, tauto := s.resolve(a, b, v)
				if tauto {
					continue
				}
				if len(r) > elimMaxResolventLen || len(resolvents) >= len(pos)+len(neg) {
					feasible = false
					break
				}
				resolvents = append(resolvents, r)
			}
			if !feasible {
				break
			}
		}
		if !feasible {
			continue
		}

		// Commit: store originals (v-literal first), kill them, add resolvents.
		entry := elimEntry{v: v}
		for _, c := range append(append([]*clause(nil), pos...), neg...) {
			saved := make([]Lit, 0, len(c.lits))
			saved = append(saved, MkLit(v, s.litSignIn(c, v)))
			for _, l := range c.lits {
				if l.Var() != v {
					saved = append(saved, l)
				}
			}
			entry.clauses = append(entry.clauses, saved)
			c.dead = true
		}
		s.elimStack = append(s.elimStack, entry)
		s.elimIdx[v] = int32(len(s.elimStack))
		s.stats.Eliminated++
		s.order.remove(v, s.activity)

		for _, r := range resolvents {
			s.addSimpClause(r, occ)
			if !s.ok {
				return
			}
		}
	}
}

// liveWith filters an occurrence list to live clauses actually containing l
// (lists go stale after strengthening).
func liveWith(cands []*clause, l Lit) []*clause {
	var out []*clause
	for _, c := range cands {
		if c.dead {
			continue
		}
		for _, cl := range c.lits {
			if cl == l {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// litSignIn reports the sign with which v occurs in c (c must contain v).
func (s *Solver) litSignIn(c *clause, v Var) bool {
	for _, l := range c.lits {
		if l.Var() == v {
			return l.Sign()
		}
	}
	panic("sat: pivot variable not in clause")
}

// resolve computes the resolvent of a (containing v) and b (containing ¬v)
// on pivot v, deduplicated; tauto reports a tautological resolvent. Literals
// already false at level 0 are dropped, already-true ones make the resolvent
// tautological in effect (it is satisfied, so it is skipped the same way).
func (s *Solver) resolve(a, b *clause, v Var) (out []Lit, tauto bool) {
	s.stampTick++
	t := s.stampTick
	add := func(lits []Lit) bool {
		for _, l := range lits {
			if l.Var() == v {
				continue
			}
			switch s.value(l) {
			case lTrue:
				return false // resolvent satisfied at level 0
			case lFalse:
				continue
			}
			if s.litStamp[l] == t {
				continue
			}
			if s.litStamp[l.Neg()] == t {
				return false // tautology
			}
			s.litStamp[l] = t
			out = append(out, l)
		}
		return true
	}
	if !add(a.lits) || !add(b.lits) {
		return nil, true
	}
	return out, false
}

// addSimpClause installs a resolvent produced during elimination: it becomes
// a regular problem clause, entered into the occurrence lists so later
// eliminations see it. Watches are attached later by rebuildWatches.
func (s *Solver) addSimpClause(lits []Lit, occ [][]*clause) {
	switch len(lits) {
	case 0:
		s.ok = false
		return
	case 1:
		s.enqueueSimpUnit(lits[0])
		return
	}
	c := &clause{lits: lits, sig: clauseSig(lits)}
	s.clauses = append(s.clauses, c)
	for _, l := range lits {
		occ[l] = append(occ[l], c)
	}
}

// dropDeadLearnts deletes learnt clauses that mention an eliminated
// variable. They are implied by the original instance, so removal is sound;
// keeping them would let search assign variables that no longer exist in the
// problem clauses.
func (s *Solver) dropDeadLearnts() {
	for _, c := range s.learnts {
		if c.dead {
			continue
		}
		for _, l := range c.lits {
			if s.elimIdx[l.Var()] != 0 {
				c.dead = true
				s.stats.Removed++
				break
			}
		}
	}
}

// compact drops dead clauses from both databases.
func (s *Solver) compact() {
	s.clauses = compactLive(s.clauses)
	s.learnts = compactLive(s.learnts)
}

func compactLive(cs []*clause) []*clause {
	out := cs[:0]
	for _, c := range cs {
		if !c.dead {
			out = append(out, c)
		}
	}
	// Zero the tail so removed clauses can be collected.
	for i := len(out); i < len(cs); i++ {
		cs[i] = nil
	}
	return out
}

// rebuildWatches reconstructs every watch list from the live clause
// databases (clause surgery invalidates watch positions wholesale; a full
// rebuild is simpler and no slower than repair).
func (s *Solver) rebuildWatches() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
}

// restoreVar undoes the elimination of v (and, transitively, of any
// eliminated variable mentioned in the restored clauses): the saved original
// clauses are re-added and v becomes a normal variable again (the next
// Solve call's cone puts it back into the decision heap).
// Called when an eliminated variable reappears in AddClause or as a Solve
// assumption.
func (s *Solver) restoreVar(v Var) {
	if s.elimIdx[v] == 0 {
		return
	}
	// Phase 1: collect the transitive closure, clearing model-extension
	// values before any clause is re-added (a stale extension value would
	// make addClauseInternal treat the clause as level-0 satisfied).
	var entries []*elimEntry
	work := []Var{v}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		idx := s.elimIdx[u]
		if idx == 0 {
			continue
		}
		e := &s.elimStack[idx-1]
		s.elimIdx[u] = 0
		e.restored = true
		s.assigns[u] = uint8(lUndef)
		s.stats.Restored++
		entries = append(entries, e)
		for _, cl := range e.clauses {
			for _, l := range cl {
				if s.elimIdx[l.Var()] != 0 {
					work = append(work, l.Var())
				}
			}
		}
	}
	// Phase 2: re-add the original clauses.
	for _, e := range entries {
		for _, cl := range e.clauses {
			if !s.addClauseInternal(cl) {
				return
			}
		}
	}
}

// restoreAll restores every eliminated variable (used by WriteDIMACS so the
// dump reflects the instance as asserted).
func (s *Solver) restoreAll() {
	for i := range s.elimStack {
		e := &s.elimStack[i]
		if !e.restored {
			s.restoreVar(e.v)
		}
	}
}

// extendModel assigns eliminated variables so every removed original clause
// is satisfied, walking the elimination stack newest-first (an entry's saved
// clauses only mention variables eliminated later — earlier-eliminated
// variables had no live clauses left — which this order has already
// assigned). Values are written into assigns directly: eliminated variables
// occur in no live clause and are out of the decision heap, and restoreVar
// resets them, so the extension can never leak into search.
func (s *Solver) extendModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		e := &s.elimStack[i]
		if e.restored {
			continue
		}
		val := uint8(lFalse)
		for _, cl := range e.clauses {
			if cl[0].Sign() {
				continue // contains ¬v: satisfied by v=false
			}
			sat := false
			for _, l := range cl[1:] {
				if s.value(l) == lTrue {
					sat = true
					break
				}
			}
			if !sat {
				val = uint8(lTrue)
				break
			}
		}
		s.assigns[e.v] = val
	}
}
