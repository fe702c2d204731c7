package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkArena verifies the arena accounting: the live clauses and the
// deleted words add up to the arena (offset 0 is reserved), and deleted
// words never exceed half of it, since reduceDB reclaims past that.
func checkArena(t *testing.T, s *Solver, where string) {
	t.Helper()
	live := 0
	for _, cs := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			live += s.words(c)
		}
	}
	if 1+live+s.wasted != len(s.arena) {
		t.Fatalf("%s: %d live + %d wasted words in an arena of %d", where, live, s.wasted, len(s.arena))
	}
	if s.wasted > len(s.arena)/2 {
		t.Fatalf("%s: %d of %d arena words wasted", where, s.wasted, len(s.arena))
	}
}

// TestReduceDBReclaimsArena drives a solver until reduceDB has deleted
// learnt clauses and reclaim has compacted the arena, then checks that
// answers under assumptions still agree with brute force. The solver holds
// two instances: pigeonhole 9→8 behind an activation literal, solved under
// a conflict budget to pile up learnt clauses, and a small satisfiable random
// CNF that every checked query solves with the pigeonhole switched off. The
// learnt-clause base is lowered to reach several reclaims quickly.
func TestReduceDBReclaimsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 12
	cnf := randomCNF(rng, n, 30)
	for !bruteForce(n, cnf) {
		cnf = randomCNF(rng, n, 30)
	}
	s := New()
	newVars(s, n)
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	act := s.NewVar()
	php := New()
	addPigeonhole(php, 9, 8)
	newVars(s, php.NumVars())
	for _, c := range php.clauses {
		cl := []Lit{MkLit(act, true)}
		for _, l := range php.lits(c) {
			cl = append(cl, l+2*Lit(act+1))
		}
		s.AddClause(cl...)
	}
	s.ConflictBudget = 2000
	// Reduce from the first learnt clause past half the problem clauses,
	// so reclaims start within a few rounds instead of after ~20.
	s.learntBase = 0

	query := func(where string) {
		assumps := []Lit{MkLit(act, true)}
		for k := rng.Intn(4); k > 0; k-- {
			assumps = append(assumps, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
		}
		got, want := s.Solve(assumps...), bruteForceWith(n, cnf, assumps[1:])
		if (got == Sat) != want {
			t.Fatalf("%s: Solve(%v) = %v, brute force sat=%v", where, assumps, got, want)
		}
		if got == Sat {
			checkAnswer(t, s, cnf, assumps, where)
		}
		checkArena(t, s, where)
	}

	reclaims, after, round := 0, 0, 0
	for ; after < 20; round++ {
		if round == 200 {
			t.Fatalf("no reclaim after %d rounds (removed %d)", round, s.Stats().Removed)
		}
		wasted := s.wasted
		if st := s.Solve(MkLit(act, false)); st == Sat {
			t.Fatalf("round %d: pigeonhole 9→8 answered sat", round)
		}
		if s.wasted < wasted {
			reclaims++
		}
		checkArena(t, s, fmt.Sprintf("round %d", round))
		query(fmt.Sprintf("round %d", round))
		if reclaims > 0 && s.Stats().Removed > 0 {
			after++
		}
	}
	if reclaims < 2 {
		t.Fatalf("only %d reclaims", reclaims)
	}
	t.Logf("%d rounds, %d reclaims, %d learnt clauses removed", round, reclaims, s.Stats().Removed)
}

// TestWarmSolveAllocs pins that a warm solver answers repeated queries over
// a shared assumption prefix without allocating: the clause arena, the
// watch lists, the kept cone and every scratch buffer are reused.
func TestWarmSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := &circuit{nIn: 8}
	s := New()
	newVars(s, c.nIn)
	for k := 0; k < 60; k++ {
		c.addGate(rng, s)
	}
	var queries [][]Lit
	for len(queries) < 4 {
		queries = queries[:0]
		prefix := []Lit{c.randomLit(rng), c.randomLit(rng), c.randomLit(rng)}
		for k := 0; k < 4; k++ {
			if q := append(prefix[:3:3], c.randomLit(rng)); c.satisfiable(q) {
				queries = append(queries, q)
			}
		}
	}
	solveAll := func() {
		for _, q := range queries {
			if s.Solve(q...) != Sat {
				t.Fatalf("Solve(%v) not sat", q)
			}
		}
	}
	solveAll()
	if a := testing.AllocsPerRun(50, solveAll); a != 0 {
		t.Fatalf("warm Solve allocates: %v allocs per round", a)
	}
}
