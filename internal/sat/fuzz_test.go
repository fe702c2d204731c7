package sat

import (
	"math/rand"
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
