package sat

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func lit(v int, neg bool) Lit { return MkLit(Var(v), neg) }

func newVars(s *Solver, n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestLitBasics(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Sign() {
		t.Fatalf("MkLit(3,false) = %v", l)
	}
	n := l.Neg()
	if n.Var() != 3 || !n.Sign() || n.Neg() != l {
		t.Fatalf("negation broken: %v", n)
	}
	if l.String() != "v3" || n.String() != "~v3" {
		t.Fatalf("String: %q %q", l, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	v := newVars(s, 2)
	s.AddClause(lit(int(v[0]), false))
	s.AddClause(lit(int(v[1]), true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.ValueOf(v[0]) || s.ValueOf(v[1]) {
		t.Fatal("model does not satisfy unit clauses")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	if ok := s.AddClause(MkLit(v, true)); ok {
		t.Fatal("AddClause should report inconsistency")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if ok := s.AddClause(); ok {
		t.Fatal("empty clause should be unsat")
	}
	if s.Solve() != Unsat {
		t.Fatal("Solve should be Unsat after empty clause")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	v := s.NewVar()
	if !s.AddClause(MkLit(v, false), MkLit(v, true)) {
		t.Fatal("tautology rejected")
	}
	if len(s.clauses) != 0 {
		t.Fatal("tautology stored")
	}
	if s.Solve() != Sat {
		t.Fatal("should be sat")
	}
}

// xorClauses adds clauses forcing a ^ b = c.
func xorClauses(s *Solver, a, b, c Var) {
	s.AddClause(MkLit(a, true), MkLit(b, true), MkLit(c, true))
	s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, true))
	s.AddClause(MkLit(a, true), MkLit(b, false), MkLit(c, false))
	s.AddClause(MkLit(a, false), MkLit(b, true), MkLit(c, false))
}

func TestXorChain(t *testing.T) {
	// x0 ^ x1 = y0, y0 ^ x2 = y1, ..., and force the final parity; check the
	// model has the right parity.
	const n = 20
	s := New()
	xs := newVars(s, n)
	ys := newVars(s, n-1)
	xorClauses(s, xs[0], xs[1], ys[0])
	for i := 2; i < n; i++ {
		xorClauses(s, ys[i-2], xs[i], ys[i-1])
	}
	s.AddClause(MkLit(ys[n-2], false)) // parity must be 1
	if s.Solve() != Sat {
		t.Fatal("xor chain should be sat")
	}
	parity := false
	for _, x := range xs {
		if s.ValueOf(x) {
			parity = !parity
		}
	}
	if !parity {
		t.Fatal("model parity wrong")
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	// 4 pigeons, 3 holes: classic small UNSAT instance exercising learning.
	const p, h = 4, 3
	s := New()
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
		t.Fatalf("pigeonhole: got %v, want Unsat", got)
	}
}

func TestPigeonhole65(t *testing.T) {
	const p, h = 6, 5
	s := New()
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
		t.Fatalf("pigeonhole 6/5: got %v, want Unsat", got)
	}
	if s.Stats().Conflicts == 0 {
		t.Fatal("expected conflicts to be recorded")
	}
}

// firstViolated returns a clause of cnf that s's current model falsifies, or
// nil when the model satisfies them all.
func firstViolated(s *Solver, cnf [][]Lit) []Lit {
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if s.LitValue(l) {
				ok = true
				break
			}
		}
		if !ok {
			return cl
		}
	}
	return nil
}

// tseitin returns the Tseitin clauses of out = op(ins), written out
// independently of AddGate so model checks do not trust the solver's own
// encoding.
func tseitin(op GateOp, out Lit, ins []Lit) [][]Lit {
	o, a, b := out, ins[0], ins[1]
	switch op {
	case GateAnd:
		return [][]Lit{{o.Neg(), a}, {o.Neg(), b}, {o, a.Neg(), b.Neg()}}
	case GateXor:
		return [][]Lit{{o.Neg(), a, b}, {o.Neg(), a.Neg(), b.Neg()}, {o, a.Neg(), b}, {o, a, b.Neg()}}
	}
	sel, t, f := ins[0], ins[1], ins[2]
	return [][]Lit{{sel.Neg(), t.Neg(), o}, {sel.Neg(), t, o.Neg()}, {sel, f.Neg(), o}, {sel, f, o.Neg()}}
}

// firstOpen returns a variable that makes s's current answer incomplete —
// a cone variable left unassigned, or an assigned gate with an unassigned
// input — or -1. Together with firstViolated over every clause, gate
// definitions included, it is the contract of a Sat answer.
func firstOpen(s *Solver) Var {
	for _, v := range s.cone {
		if s.assigns[v] >= uint8(lUndef) {
			return v
		}
	}
	for v := range s.assigns {
		if s.assigns[v] >= uint8(lUndef) {
			continue
		}
		for _, in := range s.faninOf(Var(v)) {
			if s.assigns[in.Var()] >= uint8(lUndef) {
				return Var(v)
			}
		}
	}
	return -1
}

// TestGateOutsideConeReadsDefinition mixes gates the query reaches with
// gates it does not: one constrained by an AddClause clause in a single
// direction (so it is rooted), one read by an assumption, and one nothing
// mentions. Every Sat answer must leave the unmentioned gate unassigned,
// read it from its definition, and satisfy every clause, gate definitions
// included.
func TestGateOutsideConeReadsDefinition(t *testing.T) {
	s := New()
	a, b, c := MkLit(s.NewVar(), false), MkLit(s.NewVar(), false), MkLit(s.NewVar(), false)
	half := s.AddGate(GateAnd, a, b)
	mux := s.AddGate(GateMux, c, half, a)
	free := s.AddGate(GateXor, b, c)
	cnf := [][]Lit{{half.Neg(), c}} // half -> c, but not the converse
	s.AddClause(cnf[0]...)
	cnf = append(cnf, tseitin(GateAnd, half, []Lit{a, b})...)
	cnf = append(cnf, tseitin(GateMux, mux, []Lit{c, half, a})...)
	cnf = append(cnf, tseitin(GateXor, free, []Lit{b, c})...)
	for _, assumps := range [][]Lit{nil, {a, b}, {a.Neg()}, {mux}, {mux.Neg(), c}} {
		if got := s.Solve(assumps...); got != Sat {
			t.Fatalf("assumptions %v: Solve = %v, want Sat", assumps, got)
		}
		if v := firstOpen(s); v >= 0 {
			t.Fatalf("assumptions %v: v%d open in a Sat answer", assumps, v)
		}
		if s.assigns[free.Var()] < uint8(lUndef) {
			t.Fatalf("assumptions %v: gate outside the cone was assigned", assumps)
		}
		if cl := firstViolated(s, cnf); cl != nil {
			t.Fatalf("assumptions %v: model violates %v", assumps, cl)
		}
		for _, p := range assumps {
			if !s.LitValue(p) {
				t.Fatalf("assumptions %v: model violates assumption %v", assumps, p)
			}
		}
	}
}

// TestGatePromotedOnConflict builds two XOR chains over the same inputs, in
// opposite orders, with AddGate. Asking for different parities is unsat but
// beyond unit propagation, so the refutation runs through conflicts, and the
// gates they touch must become decision variables. The matching parity must
// then be Sat with a model of that parity that satisfies every gate.
func TestGatePromotedOnConflict(t *testing.T) {
	const n = 12
	s := New()
	xs := newVars(s, n)
	var cnf [][]Lit
	chain := func(order []Var) Lit {
		acc := MkLit(order[0], false)
		for _, x := range order[1:] {
			ins := []Lit{acc, MkLit(x, false)}
			acc = s.AddGate(GateXor, ins...)
			cnf = append(cnf, tseitin(GateXor, acc, ins)...)
		}
		return acc
	}
	rev := make([]Var, n)
	for i, x := range xs {
		rev[n-1-i] = x
	}
	fwd, bwd := chain(xs), chain(rev)
	s.AddClause(fwd) // parity 1
	if s.Solve(bwd.Neg()) != Unsat {
		t.Fatal("parity 1 and parity 0 should be unsat")
	}
	if s.Stats().Conflicts == 0 {
		t.Fatal("setup: expected the refutation to need conflicts")
	}
	promoted := 0
	for v := xs[n-1] + 1; int(v) < s.NumVars(); v++ {
		if s.decision[v] {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no gate was promoted by a conflict")
	}
	if s.Solve(bwd) != Sat {
		t.Fatal("matching parities should be sat")
	}
	if v := firstOpen(s); v >= 0 {
		t.Fatalf("v%d open in a Sat answer", v)
	}
	if cl := firstViolated(s, cnf); cl != nil {
		t.Fatalf("model violates gate clause %v", cl)
	}
	parity := false
	for _, x := range xs {
		parity = parity != s.ValueOf(x)
	}
	if !parity {
		t.Fatal("model parity wrong")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b

	if got := s.Solve(MkLit(a, false), MkLit(b, true)); got != Unsat {
		t.Fatalf("assuming a and ~b: got %v, want Unsat", got)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("expected failed assumptions")
	}
	// Solver must remain usable and consistent afterwards.
	if got := s.Solve(MkLit(a, false)); got != Sat {
		t.Fatalf("assuming a: got %v, want Sat", got)
	}
	if !s.ValueOf(a) || !s.ValueOf(b) {
		t.Fatal("model must satisfy a and a->b")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions: got %v, want Sat", got)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	s.AddClause(MkLit(vs[0], false), MkLit(vs[1], false))
	if s.Solve() != Sat {
		t.Fatal("phase 1 should be sat")
	}
	s.AddClause(MkLit(vs[0], true))
	s.AddClause(MkLit(vs[1], true), MkLit(vs[2], false))
	if s.Solve() != Sat {
		t.Fatal("phase 2 should be sat")
	}
	if s.ValueOf(vs[0]) {
		t.Fatal("v0 must be false")
	}
	s.AddClause(MkLit(vs[1], true))
	if s.Solve() != Unsat {
		t.Fatal("phase 3 should be unsat")
	}
}

// bruteForce checks satisfiability of a CNF over n variables by enumeration.
func bruteForce(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Sign() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce cross-checks the CDCL answer against
// exhaustive enumeration on random small instances, and validates returned
// models.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 4 + rng.Intn(7)   // 4..10 vars
		m := 2 + rng.Intn(5*n) // up to ~5n clauses
		cnf := make([][]Lit, 0, m)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
		}
		s := New()
		newVars(s, n)
		consistent := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				consistent = false
			}
		}
		got := s.Solve()
		want := bruteForce(n, cnf)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v cnf=%v", iter, got, want, cnf)
		}
		if !consistent && got == Sat {
			t.Fatalf("iter %d: AddClause said unsat but Solve said Sat", iter)
		}
		if got == Sat {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.LitValue(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

// TestAssumptionEquivalence checks that solving under assumptions answers the
// same as solving with those assumptions added as unit clauses.
func TestAssumptionEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		m := 2 + rng.Intn(4*n)
		cnf := make([][]Lit, 0, m)
		for i := 0; i < m; i++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
		}
		nAssump := rng.Intn(3)
		assumps := make([]Lit, 0, nAssump)
		seen := map[Var]bool{}
		for len(assumps) < nAssump {
			v := Var(rng.Intn(n))
			if seen[v] {
				break
			}
			seen[v] = true
			assumps = append(assumps, MkLit(v, rng.Intn(2) == 1))
		}

		s1 := New()
		newVars(s1, n)
		ok1 := true
		for _, cl := range cnf {
			ok1 = s1.AddClause(cl...) && ok1
		}
		got1 := s1.Solve(assumps...)

		s2 := New()
		newVars(s2, n)
		for _, cl := range cnf {
			s2.AddClause(cl...)
		}
		for _, a := range assumps {
			s2.AddClause(a)
		}
		got2 := s2.Solve()

		return (got1 == Sat) == (got2 == Sat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestAssumptionLevelsOutnumberVars repeats an assumption, so the
// assumption levels (one per assumption, empty when it already holds)
// outnumber the variables, and then needs conflicts above them: conflict
// analysis must handle decision levels beyond the variable count.
func TestAssumptionLevelsOutnumberVars(t *testing.T) {
	s := New()
	x := newVars(s, 4)
	for m := 0; m < 8; m++ { // every clause over x1..x3: unsat
		s.AddClause(MkLit(x[1], m&1 == 1), MkLit(x[2], m&2 == 2), MkLit(x[3], m&4 == 4))
	}
	a := MkLit(x[0], false)
	if got := s.Solve(a, a, a, a, a, a); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	if s.Stats().Conflicts == 0 {
		t.Fatal("setup: expected the refutation to need conflicts")
	}
}

func TestManySolveCallsReuseLearning(t *testing.T) {
	// Repeated assumption queries against one instance must stay consistent.
	s := New()
	vs := newVars(s, 10)
	for i := 0; i+2 < len(vs); i++ {
		s.AddClause(MkLit(vs[i], true), MkLit(vs[i+1], false), MkLit(vs[i+2], false))
	}
	for i := 0; i < 50; i++ {
		a := MkLit(vs[i%len(vs)], i%2 == 0)
		got := s.Solve(a)
		if got != Sat {
			t.Fatalf("query %d: got %v", i, got)
		}
		if !s.LitValue(a) {
			t.Fatalf("query %d: assumption not honoured in model", i)
		}
	}
}

func TestWriteDIMACS(t *testing.T) {
	s := New()
	vs := newVars(s, 3)
	s.AddClause(MkLit(vs[0], false), MkLit(vs[1], true))
	s.AddClause(MkLit(vs[1], false), MkLit(vs[2], false))
	s.AddClause(MkLit(vs[0], true)) // unit: lands on the trail

	var buf strings.Builder
	if err := s.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The unit clause propagates at level 0 (-1 forces -2 forces 3), so the
	// dump carries three units plus the two stored clauses.
	if !strings.HasPrefix(out, "p cnf 3 5\n") {
		t.Fatalf("header wrong:\n%s", out)
	}
	for _, unit := range []string{"-1 0\n", "-2 0\n", "3 0\n"} {
		if !strings.Contains(out, unit) {
			t.Fatalf("unit %q missing:\n%s", unit, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Fatalf("line count = %d:\n%s", lines, out)
	}

	// Unsat instance dumps the canonical contradiction.
	u := New()
	v := u.NewVar()
	u.AddClause(MkLit(v, false))
	u.AddClause(MkLit(v, true))
	buf.Reset()
	if err := u.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p cnf 1 2") {
		t.Fatalf("unsat dump wrong:\n%s", buf.String())
	}
}
