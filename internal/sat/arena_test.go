package sat

import (
	"math/rand"
	"testing"
)

// checkArena verifies the arena layout once no clause is ever deleted: the
// clauses lie end to end after the reserved offset 0, so the arena is 1 plus
// the sum of their words (a header and its literals); every problem-clause
// entry, watcher and reason ref names a clause header; and every clause is
// watched exactly twice, for the complements of its first two literals, by
// watchers that flag it binary when it is.
func checkArena(t *testing.T, s *Solver, where string) {
	t.Helper()
	watched := make(map[cref]int)
	c := cref(1)
	for int(c) < len(s.arena) {
		n := int(s.arena[c])
		if n < 2 {
			t.Fatalf("%s: clause at %d has %d literals", where, c, n)
		}
		watched[c] = 0
		c += cref(1 + n)
	}
	if int(c) != len(s.arena) {
		t.Fatalf("%s: clause words end at %d in an arena of %d", where, c, len(s.arena))
	}
	isHeader := func(r cref) bool { _, ok := watched[r]; return ok }
	for _, c := range s.clauses {
		if !isHeader(c) {
			t.Fatalf("%s: problem clause ref %d names no clause header", where, c)
		}
	}
	for p, ws := range s.watches {
		for _, w := range ws {
			c := w.ref &^ crefBin
			if !isHeader(c) {
				t.Fatalf("%s: watcher ref %d of %v names no clause header", where, c, Lit(p))
			}
			lits := s.lits(c)
			if (w.ref&crefBin != 0) != (len(lits) == 2) {
				t.Fatalf("%s: watcher of %v flags clause %v binary=%v", where, Lit(p), lits, w.ref&crefBin != 0)
			}
			if np := Lit(p) ^ 1; lits[0] != np && lits[1] != np {
				t.Fatalf("%s: clause %v watched for %v", where, lits, Lit(p))
			}
			watched[c]++
		}
	}
	for c, n := range watched {
		if n != 2 {
			t.Fatalf("%s: clause %v has %d watchers", where, s.lits(c), n)
		}
	}
	for v, r := range s.reason {
		if r != noReason && !isHeader(r) {
			t.Fatalf("%s: reason ref %d of v%d names no clause header", where, r, v)
		}
	}
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
