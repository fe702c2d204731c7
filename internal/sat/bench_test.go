package sat

import (
	"math/rand"
	"testing"
)

// propagationChain builds n implication chains of length depth fanning out
// from one root variable: asserting the root floods the trail with unit
// propagations and never conflicts. Returns the root.
func propagationChain(s *Solver, chains, depth int) Var {
	root := s.NewVar()
	for c := 0; c < chains; c++ {
		prev := root
		for d := 0; d < depth; d++ {
			v := s.NewVar()
			s.AddClause(MkLit(prev, true), MkLit(v, false)) // prev -> v
			prev = v
		}
	}
	return root
}

// BenchmarkPropagationHeavy measures the watched-literal propagation loop:
// each iteration asserts/retracts the chain root via assumptions, walking
// ~chains*depth implications with no conflicts — the dominant operation in
// the bit-blasted exploration workload.
func BenchmarkPropagationHeavy(b *testing.B) {
	s := New()
	root := propagationChain(s, 50, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(MkLit(root, false)) != Sat {
			b.Fatal("chain should be sat")
		}
		if s.Solve(MkLit(root, true)) != Sat {
			b.Fatal("negated root should be sat")
		}
	}
}

func addPigeonhole(s *Solver, p, h int) {
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
}

// BenchmarkConflictHeavy measures conflict analysis and learning on
// a fresh pigeonhole instance per iteration (learnt clauses from one run must
// not subsidise the next).
func BenchmarkConflictHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		addPigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("pigeonhole should be unsat")
		}
	}
}

// prefixScript builds a gate DAG and the query sequence of a depth-first
// walk over a path tree on it, the bit-blasted engine's pattern: grow the
// path by one branch literal, query both sides, follow a feasible one, and
// now and then backtrack a few levels. Answers are taken on s while the
// script is built, so s arrives warm.
func prefixScript(s *Solver, gates, queries int) [][]Lit {
	rng := rand.New(rand.NewSource(3))
	c := &circuit{nIn: 32}
	newVars(s, c.nIn)
	for k := 0; k < gates; k++ {
		c.addGate(rng, s)
	}
	var script [][]Lit
	var path []Lit
	for len(script) < queries {
		if len(path) >= 16 || rng.Intn(6) == 0 {
			path = path[:rng.Intn(len(path)+1)]
		}
		l := c.randomLit(rng)
		sat := false
		for _, br := range [2]Lit{l, l.Neg()} {
			q := append(path[:len(path):len(path)], br)
			script = append(script, q)
			if s.Solve(q...) == Sat && !sat {
				sat = true
				path = q
			}
		}
	}
	return script
}

// BenchmarkSolvePrefix replays prefixScript's 256 queries per iteration on a
// 1000-gate DAG: trail reuse, cone reuse along the shared prefix and
// cone-restricted propagation, with conflicts only where a branch is
// infeasible.
func BenchmarkSolvePrefix(b *testing.B) {
	s := New()
	script := prefixScript(s, 1000, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range script {
			s.Solve(q...)
		}
	}
}
