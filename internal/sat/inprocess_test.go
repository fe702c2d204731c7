package sat

import (
	"math/rand"
	"strings"
	"testing"
)

// forceSimplify runs one inprocessing round from a test, regardless of the
// conflict/growth trigger. simplify requires decision level 0; after a Solve
// the trail may still hold reused assumption levels.
func forceSimplify(s *Solver, frozen ...Lit) {
	s.cancelUntil(0)
	s.simplify(frozen)
}

func TestSimplifySubsumption(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	a, b, c := vs[0], vs[1], vs[2]
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, false))
	// Freeze every variable so elimination cannot hide the subsumption.
	forceSimplify(s, MkLit(a, false), MkLit(b, false), MkLit(c, false))
	if s.stats.Subsumed != 1 {
		t.Fatalf("Subsumed = %d, want 1", s.stats.Subsumed)
	}
	if s.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", s.NumClauses())
	}
	if s.Solve() != Sat {
		t.Fatal("instance should stay sat")
	}
	if !s.ValueOf(a) && !s.ValueOf(b) {
		t.Fatal("model violates surviving clause")
	}
}

func TestSimplifyStrengthen(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	a, b, c := vs[0], vs[1], vs[2]
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, false), MkLit(c, false))
	// Self-subsuming resolution on a strengthens the second clause to (b, c).
	forceSimplify(s, MkLit(a, false), MkLit(b, false), MkLit(c, false))
	if s.stats.Strengthened != 1 {
		t.Fatalf("Strengthened = %d, want 1", s.stats.Strengthened)
	}
	// (b or c) must now hold on its own: force both false alongside a.
	if got := s.Solve(MkLit(a, false), MkLit(b, true), MkLit(c, true)); got != Unsat {
		t.Fatalf("strengthened clause lost: got %v, want Unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("instance should stay sat, got %v", got)
	}
}

// gateCNF adds t <-> (a AND b) and returns the three clauses for model checks.
func gateCNF(s *Solver, tt, a, b Var) [][]Lit {
	cls := [][]Lit{
		{MkLit(tt, true), MkLit(a, false)},
		{MkLit(tt, true), MkLit(b, false)},
		{MkLit(tt, false), MkLit(a, true), MkLit(b, true)},
	}
	for _, cl := range cls {
		s.AddClause(cl...)
	}
	return cls
}

func TestSimplifyEliminateAndExtendModel(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	tt, a, b := vs[0], vs[1], vs[2]
	cls := gateCNF(s, tt, a, b)
	// Freeze a and b; the definition variable t is eliminable (all resolvents
	// are tautologies).
	forceSimplify(s, MkLit(a, false), MkLit(b, false))
	if s.stats.Eliminated != 1 {
		t.Fatalf("Eliminated = %d, want 1", s.stats.Eliminated)
	}
	if s.Solve() != Sat {
		t.Fatal("should be sat")
	}
	// extendModel must give the eliminated t a value consistent with the
	// original clauses.
	for _, cl := range cls {
		ok := false
		for _, l := range cl {
			if s.LitValue(l) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("extended model violates original clause %v", cl)
		}
	}
}

func TestEliminatedVarRestoredOnReuse(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	tt, a, b := vs[0], vs[1], vs[2]
	gateCNF(s, tt, a, b)
	forceSimplify(s, MkLit(a, false), MkLit(b, false))
	if s.stats.Eliminated != 1 {
		t.Fatal("setup: t not eliminated")
	}

	// A new clause mentioning t must transparently restore its definition.
	s.AddClause(MkLit(tt, false)) // assert t
	if s.stats.Restored != 1 {
		t.Fatalf("Restored = %d, want 1", s.stats.Restored)
	}
	if s.Solve() != Sat {
		t.Fatal("should be sat with t asserted")
	}
	if !s.ValueOf(a) || !s.ValueOf(b) {
		t.Fatal("t -> a AND b lost across elimination/restore")
	}
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("t AND (t -> a AND b) AND (~a OR ~b): got %v, want Unsat", got)
	}
}

func TestEliminatedVarRestoredByAssumption(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	tt, a, b := vs[0], vs[1], vs[2]
	gateCNF(s, tt, a, b)
	forceSimplify(s, MkLit(a, false), MkLit(b, false))
	if s.stats.Eliminated != 1 {
		t.Fatal("setup: t not eliminated")
	}
	// Assuming the eliminated variable must restore it and honour its
	// definition, including in the failed-assumption core.
	if got := s.Solve(MkLit(tt, false), MkLit(a, true)); got != Unsat {
		t.Fatalf("t with ~a: got %v, want Unsat", got)
	}
	if len(s.FailedAssumptions()) == 0 {
		t.Fatal("expected a failed-assumption core")
	}
	if got := s.Solve(MkLit(tt, false)); got != Sat {
		t.Fatalf("t alone: got %v, want Sat", got)
	}
	if !s.ValueOf(a) || !s.ValueOf(b) {
		t.Fatal("definition lost after restore")
	}
}

func TestWriteDIMACSAfterElimination(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	tt, a, b := vs[0], vs[1], vs[2]
	gateCNF(s, tt, a, b)
	forceSimplify(s, MkLit(a, false), MkLit(b, false))
	if s.stats.Eliminated != 1 {
		t.Fatal("setup: t not eliminated")
	}
	var buf strings.Builder
	if err := s.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	// The dump must restore the eliminated definition: all three gate clauses
	// reappear (possibly reordered within each clause).
	out := buf.String()
	if !strings.HasPrefix(out, "p cnf 3 3\n") {
		t.Fatalf("header wrong:\n%s", out)
	}
	// The solver must remain usable after the dump's restoreAll.
	s.AddClause(MkLit(tt, false))
	if s.Solve() != Sat || !s.ValueOf(a) || !s.ValueOf(b) {
		t.Fatal("solver inconsistent after WriteDIMACS restore")
	}
}

// bruteForceWith checks satisfiability of cnf plus extra unit literals.
func bruteForceWith(n int, cnf [][]Lit, units []Lit) bool {
	all := make([][]Lit, 0, len(cnf)+len(units))
	all = append(all, cnf...)
	for _, u := range units {
		all = append(all, []Lit{u})
	}
	return bruteForce(n, all)
}

func randomCNF(rng *rand.Rand, n, m int) [][]Lit {
	cnf := make([][]Lit, 0, m)
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(3)
		cl := make([]Lit, 0, k)
		for j := 0; j < k; j++ {
			cl = append(cl, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
		}
		cnf = append(cnf, cl)
	}
	return cnf
}

// TestRandomSimplifyDifferential cross-checks an aggressively inprocessed
// solver against an inprocessing-off solver and brute force, on incremental
// workloads with assumption queries — the usage pattern of the bit-blasting
// layer above. Sat models are validated against the original clauses and
// Unsat assumption cores are re-verified by enumeration.
//
// Part of the variables are AND/XOR/MUX gates over earlier ones, half of
// them created after a simplification round (so an eliminated input must
// come back as a gate's fan-in). Gates stay out of elimination and outside
// the cone of queries that do not reach them; every Sat model read through
// ValueOf must still satisfy every clause, gate definitions included.
func TestRandomSimplifyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nIn := 3 + rng.Intn(5)   // 3..7 inputs
		nGate := 2 + rng.Intn(6) // 2..7 gates
		n := nIn + nGate
		early := nIn + nGate/2 // variables that exist before the first round

		s := New()
		off := New()
		off.SetInprocessing(false)
		newVars(s, nIn)
		newVars(off, nIn)
		var defs [][]Lit
		addGates := func(from, to int) {
			for v := from; v < to; v++ {
				op := GateOp(1 + rng.Intn(3))
				ins := make([]Lit, op.arity())
				for k := range ins {
					ins[k] = MkLit(Var(rng.Intn(v)), rng.Intn(2) == 1)
				}
				o := s.AddGate(op, ins...)
				if off.AddGate(op, ins...) != o || o.Var() != Var(v) {
					t.Fatalf("iter %d: gate numbering diverged", iter)
				}
				defs = append(defs, tseitin(op, o, ins)...)
			}
		}
		addGates(nIn, early)
		m := 3 + rng.Intn(4*n)
		cnf := randomCNF(rng, early, m/2)
		for _, cl := range cnf {
			s.AddClause(cl...)
			off.AddClause(cl...)
		}
		s.Solve() // seed learnt clauses so simplify sees a mixed database
		forceSimplify(s)
		addGates(early, n)
		late := randomCNF(rng, n, m-m/2)
		for _, cl := range late {
			s.AddClause(cl...)
			off.AddClause(cl...)
		}
		forceSimplify(s)
		cnf = append(append(cnf, late...), defs...)

		want := bruteForce(n, cnf)
		got, gotOff := s.Solve(), off.Solve()
		if (got == Sat) != want || (gotOff == Sat) != want {
			t.Fatalf("iter %d: inproc=%v off=%v bruteforce=%v cnf=%v", iter, got, gotOff, want, cnf)
		}
		if got == Sat {
			if v := firstOpen(s); v >= 0 {
				t.Fatalf("iter %d: v%d open in a Sat answer", iter, v)
			}
			if cl := firstViolated(s, cnf); cl != nil {
				t.Fatalf("iter %d: model violates original clause %v", iter, cl)
			}
		}
		if gotOff == Sat {
			if cl := firstViolated(off, cnf); cl != nil {
				t.Fatalf("iter %d: inprocessing-off model violates original clause %v", iter, cl)
			}
		}

		// Assumption query over the same incremental instance.
		assumps := []Lit{
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		}
		wantA := bruteForceWith(n, cnf, assumps)
		gotA, gotOffA := s.Solve(assumps...), off.Solve(assumps...)
		if (gotA == Sat) != wantA || (gotOffA == Sat) != wantA {
			t.Fatalf("iter %d: assumptions %v: inproc=%v off=%v bruteforce=%v cnf=%v",
				iter, assumps, gotA, gotOffA, wantA, cnf)
		}
		if gotA == Unsat && want {
			// The core must be a genuinely unsatisfiable subset (the clause
			// set alone is sat, so the core cannot be empty).
			failed := s.FailedAssumptions()
			if len(failed) == 0 {
				t.Fatalf("iter %d: empty core for sat clause set", iter)
			}
			// FailedAssumptions holds the negations of the responsible
			// assumptions; the core itself is their complement.
			core := make([]Lit, len(failed))
			for i, l := range failed {
				core[i] = l.Neg()
			}
			if bruteForceWith(n, cnf, core) {
				t.Fatalf("iter %d: core %v not actually unsat", iter, core)
			}
		}
		if gotA == Sat {
			if v := firstOpen(s); v >= 0 {
				t.Fatalf("iter %d: assumptions %v: v%d open in a Sat answer", iter, assumps, v)
			}
			if cl := firstViolated(s, cnf); cl != nil {
				t.Fatalf("iter %d: assumptions %v: model violates original clause %v", iter, assumps, cl)
			}
		}
	}
}

// TestPortfolioPresetsAgree runs every portfolio preset over random instances
// and checks each answers exactly as brute force — diversified heuristics may
// change the search order, never the answer.
func TestPortfolioPresetsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		n := 5 + rng.Intn(6)
		m := 3 + rng.Intn(5*n)
		cnf := randomCNF(rng, n, m)
		want := bruteForce(n, cnf)
		for worker := 0; worker <= 7; worker++ {
			s := NewWith(PortfolioOptions(worker))
			newVars(s, n)
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
			if got := s.Solve(); (got == Sat) != want {
				t.Fatalf("iter %d worker %d: got %v, bruteforce=%v cnf=%v",
					iter, worker, got, want, cnf)
			}
			if want {
				for _, cl := range cnf {
					ok := false
					for _, l := range cl {
						if s.LitValue(l) {
							ok = true
							break
						}
					}
					if !ok {
						t.Fatalf("iter %d worker %d: model violates %v", iter, worker, cl)
					}
				}
			}
		}
	}
}

// TestEMARestartPolicy exercises the glucose-style restart path end to end on
// a learning-heavy unsat instance.
func TestEMARestartPolicy(t *testing.T) {
	o := DefaultOptions()
	o.Restart = RestartEMA
	s := NewWith(o)
	const p, h = 7, 6
	vs := make([][]Var, p)
	for i := range vs {
		vs[i] = newVars(s, h)
	}
	for i := 0; i < p; i++ {
		cl := make([]Lit, h)
		for j := 0; j < h; j++ {
			cl[j] = MkLit(vs[i][j], false)
		}
		s.AddClause(cl...)
	}
	for j := 0; j < h; j++ {
		for i := 0; i < p; i++ {
			for k := i + 1; k < p; k++ {
				s.AddClause(MkLit(vs[i][j], true), MkLit(vs[k][j], true))
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("pigeonhole 7/6 under EMA restarts: got %v, want Unsat", got)
	}
}
