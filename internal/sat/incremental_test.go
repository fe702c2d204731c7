package sat

import (
	"math/rand"
	"testing"
)

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

// checkAnswer fails the test unless a Sat answer of s is complete and its
// model satisfies cnf and the assumptions.
func checkAnswer(t *testing.T, s *Solver, cnf [][]Lit, assumps []Lit, where string) {
	t.Helper()
	if v := firstOpen(s); v >= 0 {
		t.Fatalf("%s: v%d open in a Sat answer", where, v)
	}
	if cl := firstViolated(s, cnf); cl != nil {
		t.Fatalf("%s: model violates clause %v", where, cl)
	}
	for _, l := range assumps {
		if !s.LitValue(l) {
			t.Fatalf("%s: model violates assumption %v", where, l)
		}
	}
}

// TestRandomIncrementalDifferential cross-checks the solver against brute
// force over every variable on incremental workloads with assumption
// queries — the usage pattern of the bit-blasting layer above. Random
// clauses of one to three literals may make the instance unsat. Part of the
// variables are AND/XOR/MUX gates over earlier ones, half of them created
// after a first Solve (so new gates read inputs the solver has already
// assigned); gates outside a query's cone stay unassigned, and every Sat
// model read through ValueOf must satisfy every clause, gate definitions
// included. Unsat assumption cores are re-verified by enumeration, and every
// heap openCone builds is compared with a full rebuild (checkHeapRebuild).
func TestRandomIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	incremental := 0
	for iter := 0; iter < 300; iter++ {
		nIn := 3 + rng.Intn(5)   // 3..7 inputs
		nGate := 2 + rng.Intn(6) // 2..7 gates
		n := nIn + nGate
		early := nIn + nGate/2 // variables that exist at the first Solve

		s := New()
		rebuilt := checkHeapRebuild(t, s)
		newVars(s, nIn)
		var defs [][]Lit
		addGates := func(from, to int) {
			for v := from; v < to; v++ {
				op := GateOp(1 + rng.Intn(3))
				ins := make([]Lit, op.arity())
				for k := range ins {
					ins[k] = MkLit(Var(rng.Intn(v)), rng.Intn(2) == 1)
				}
				o := s.AddGate(op, ins...)
				if o.Var() != Var(v) {
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
		}
		cnf = append(cnf, defs...)
		got, want := s.Solve(), bruteForce(early, cnf)
		if (got == Sat) != want {
			t.Fatalf("iter %d: first Solve = %v, bruteforce=%v cnf=%v", iter, got, want, cnf)
		}
		if got == Sat {
			checkAnswer(t, s, cnf, nil, "first Solve")
		}

		defs = defs[:0]
		addGates(early, n)
		late := randomCNF(rng, n, m-m/2)
		for _, cl := range late {
			s.AddClause(cl...)
		}
		cnf = append(append(cnf, late...), defs...)
		got, want = s.Solve(), bruteForce(n, cnf)
		if (got == Sat) != want {
			t.Fatalf("iter %d: second Solve = %v, bruteforce=%v cnf=%v", iter, got, want, cnf)
		}
		if got == Sat {
			checkAnswer(t, s, cnf, nil, "second Solve")
		}

		// Assumption queries over the same incremental instance; the second
		// extends the first, so it reuses its trail prefix.
		assumps := []Lit{
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		}
		for q := 0; q < 2; q++ {
			gotA, wantA := s.Solve(assumps...), bruteForceWith(n, cnf, assumps)
			if (gotA == Sat) != wantA {
				t.Fatalf("iter %d: assumptions %v: got %v, bruteforce=%v cnf=%v", iter, assumps, gotA, wantA, cnf)
			}
			if gotA == Unsat && want {
				// The core must be a genuinely unsatisfiable subset (the
				// clause set alone is sat, so the core cannot be empty).
				// FailedAssumptions holds the negations of the responsible
				// assumptions; the core itself is their complement.
				failed := s.FailedAssumptions()
				if len(failed) == 0 {
					t.Fatalf("iter %d: empty core for sat clause set", iter)
				}
				core := make([]Lit, len(failed))
				for i, l := range failed {
					core[i] = l.Neg()
				}
				if bruteForceWith(n, cnf, core) {
					t.Fatalf("iter %d: core %v not actually unsat", iter, core)
				}
			}
			if gotA == Sat {
				checkAnswer(t, s, cnf, assumps, "assumption query")
			}
			assumps = append(assumps, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
		}
		incremental += *rebuilt
	}
	if incremental == 0 {
		t.Error("no openCone rebuilt the heap incrementally")
	}
}
