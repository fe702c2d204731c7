package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzSolveSmallCNF checks the CDCL answer against exhaustive enumeration
// on CNFs over at most 10 variables, solved first without and then under
// assumptions on one incremental solver, and checks every Sat model against
// the clauses and assumptions. Input layout: the variable count, the
// assumption count, the assumption literals, then clauses as a length byte
// followed by literal bytes (bit 7 negates, the rest picks the variable).
func FuzzSolveSmallCNF(f *testing.F) {
	// Seeds drawn like TestRandom3SATAgainstBruteForce's instances.
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 32; iter++ {
		n := 4 + rng.Intn(7)
		na := rng.Intn(4)
		b := []byte{byte(n - 1), byte(na)}
		for i := 0; i < na; i++ {
			b = append(b, byte(rng.Intn(256)))
		}
		for i, m := 0, 2+rng.Intn(5*n); i < m; i++ {
			k := 1 + rng.Intn(3)
			b = append(b, byte(k-1))
			for j := 0; j < k; j++ {
				b = append(b, byte(rng.Intn(n)|rng.Intn(2)<<7))
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%10
		litOf := func(b int) Lit { return MkLit(Var((b&0x7f)%n), b&0x80 != 0) }
		assumps := make([]Lit, next()%4)
		for i := range assumps {
			assumps[i] = litOf(next())
		}
		var cnf [][]Lit
		for len(data) > 0 {
			cl := make([]Lit, 1+next()%3)
			for i := range cl {
				cl[i] = litOf(next())
			}
			cnf = append(cnf, cl)
		}

		s := New()
		newVars(s, n)
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		check := func(as []Lit) {
			with := cnf
			for _, a := range as {
				with = append(with[:len(with):len(with)], []Lit{a})
			}
			got, want := s.Solve(as...), bruteForce(n, with)
			if (got == Sat) != want {
				t.Fatalf("Solve(%v) = %v, brute force sat = %v, cnf %v", as, got, want, cnf)
			}
			if got != Sat {
				return
			}
			for _, cl := range with {
				ok := false
				for _, l := range cl {
					ok = ok || s.LitValue(l)
				}
				if !ok {
					t.Fatalf("Solve(%v) model fails clause %v", as, cl)
				}
			}
		}
		check(nil)
		check(assumps)
	})
}

// byteRand draws choices from fuzz input; exhausted input reads as zeros.
type byteRand struct{ data []byte }

func (r *byteRand) Intn(n int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % n
}

// refCone computes from scratch, on the circuit mirror, the part of a cone
// that depends on the query alone: the fan-in closure of the assumptions,
// then of the rooted variables (those of c.extra, in rooting order), in
// markCone's traversal order.
func refCone(c *circuit, assumps []Lit) []Var {
	in := make([]bool, c.nIn+len(c.ops))
	var cone []Var
	mark := func(v Var) {
		if in[v] {
			return
		}
		in[v] = true
		work := []Var{v}
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			cone = append(cone, u)
			if k := int(u) - c.nIn; k >= 0 {
				for _, l := range c.fanins[k] {
					if w := l.Var(); !in[w] {
						in[w] = true
						work = append(work, w)
					}
				}
			}
		}
	}
	for _, l := range assumps {
		mark(l.Var())
	}
	for _, cl := range c.extra {
		for _, l := range cl {
			mark(l.Var())
		}
	}
	return cone
}

// checkCone compares the solver's cone with refCone: the query part must be
// equal, order included; the rest (fan-in of inherited assignments) must be
// new and distinct; and exactly the cone's members carry the in-cone flag.
func checkCone(t *testing.T, s *Solver, c *circuit, assumps []Lit) {
	t.Helper()
	ref := refCone(c, assumps)
	if len(s.cone) < len(ref) || !slices.Equal(s.cone[:len(ref)], ref) {
		t.Fatalf("Solve(%v): cone %v, from scratch %v", assumps, s.cone, ref)
	}
	member := make([]bool, s.NumVars())
	for _, v := range ref {
		member[v] = true
	}
	for _, v := range s.cone[len(ref):] {
		if member[v] {
			t.Fatalf("Solve(%v): v%d twice in cone %v", assumps, v, s.cone)
		}
		member[v] = true
	}
	for v, f := range s.vflags {
		if (f&fInCone != 0) != member[v] {
			t.Fatalf("Solve(%v): v%d in-cone flag %v, cone %v", assumps, v, f&fInCone != 0, s.cone)
		}
	}
}

// FuzzGateDAG drives TestRandomGateDAGDifferential's circuit harness from
// fuzz bytes: each step may add a gate or a clause, then keeps, extends,
// shrinks or diverges from the previous assumption list, so consecutive
// calls share prefixes of every length and the kept cone is cut back and
// regrown. Every answer must agree with brute force, every Sat model must
// satisfy the circuit and the assumptions, every core must be unsat, and the
// cone must equal a from-scratch computation (checkCone), as must every
// heap openCone builds (checkHeapRebuild).
func FuzzGateDAG(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 24; i++ {
		b := make([]byte, 64+rng.Intn(192))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		r := &byteRand{data}
		c := &circuit{nIn: 2 + r.Intn(5)}
		s := New()
		checkHeapRebuild(t, s)
		newVars(s, c.nIn)
		for k := 2 + r.Intn(10); k > 0; k-- {
			c.addGate(r, s)
		}
		var assumps []Lit
		for q := 0; len(r.data) > 0 && q < 40; q++ {
			switch r.Intn(6) {
			case 0:
				c.addGate(r, s)
			case 1:
				cl := []Lit{c.randomLit(r), c.randomLit(r)}
				c.extra = append(c.extra, cl)
				if !c.satisfiable(nil) {
					c.extra = c.extra[:len(c.extra)-1]
					break
				}
				s.AddClause(cl...)
			}
			switch r.Intn(4) {
			case 1: // extend
				for k := 1 + r.Intn(3); k > 0; k-- {
					assumps = append(assumps, c.randomLit(r))
				}
			case 2: // shrink
				assumps = assumps[:len(assumps)-r.Intn(len(assumps)+1)]
			case 3: // diverge
				assumps = append(assumps[:r.Intn(len(assumps)+1)], c.randomLit(r))
			}
			got, want := s.Solve(assumps...), c.satisfiable(assumps)
			if (got == Sat) != want {
				t.Fatalf("query %d: Solve(%v) = %v, brute force sat=%v", q, assumps, got, want)
			}
			checkCone(t, s, c, assumps)
			if got == Unsat {
				var core []Lit
				for _, l := range s.FailedAssumptions() {
					core = append(core, l.Neg())
				}
				if c.satisfiable(core) {
					t.Fatalf("query %d: core %v of %v is satisfiable", q, core, assumps)
				}
				continue
			}
			if v := firstOpen(s); v >= 0 {
				t.Fatalf("query %d: v%d open in a Sat answer", q, v)
			}
			if cl := firstViolated(s, c.clauses()); cl != nil {
				t.Fatalf("query %d: model violates %v", q, cl)
			}
			for _, l := range assumps {
				if !s.LitValue(l) {
					t.Fatalf("query %d: model violates assumption %v", q, l)
				}
			}
		}
	})
}
