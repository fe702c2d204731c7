package solver

import (
	"math/rand"
	"testing"

	"symriscv/internal/smt"
)

// randConstraint builds a random boolean constraint over the given variables.
func randConstraint(rng *rand.Rand, ctx *smt.Context, vars []*smt.Term) *smt.Term {
	a := randTerm(rng, ctx, vars, 2)
	b := randTerm(rng, ctx, vars, 2)
	switch rng.Intn(5) {
	case 0:
		return ctx.Eq(a, b)
	case 1:
		return ctx.Ne(a, b)
	case 2:
		return ctx.Ult(a, b)
	case 3:
		return ctx.Slt(a, b)
	default:
		return ctx.Ule(a, b)
	}
}

// satisfiableByEval decides by enumeration whether every constraint holds
// under some assignment of the 4-bit inputs x and y.
func satisfiableByEval(t *testing.T, cs []*smt.Term) bool {
	t.Helper()
	for m := uint64(0); m < 256; m++ {
		env := smt.MapEnv{"x": m & 15, "y": m >> 4}
		ok := true
		for _, c := range cs {
			v, err := smt.Eval(c, env)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if v != 1 {
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

// TestIncrementalDifferentialQFBV fuzzes the solver over random QF_BV
// constraint sets grown incrementally, as the engine grows a path, under
// assumption queries. The
// inputs are two 4-bit variables zero-extended to 32 bits, so enumerating
// all 256 assignments with smt.Eval decides every query independently of
// the solver. Answers must agree with it, and Sat models are re-checked by
// the term evaluator.
func TestIncrementalDifferentialQFBV(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		ctx := smt.NewContext()
		s := New(ctx)
		vars := []*smt.Term{ctx.ZExt(ctx.Var("x", 4), 32), ctx.ZExt(ctx.Var("y", 4), 32)}

		var asserted []*smt.Term
		for round := 0; round < 8; round++ {
			if rng.Intn(3) == 0 {
				asserted = append(asserted, randConstraint(rng, ctx, vars))
			}
			assumps := make([]*smt.Term, 1+rng.Intn(3))
			for i := range assumps {
				assumps[i] = randConstraint(rng, ctx, vars)
			}
			all := append(append([]*smt.Term{}, asserted...), assumps...)
			got := s.Check(all...)
			if want := satisfiableByEval(t, all); (got == Sat) != want {
				t.Fatalf("iter %d round %d: solver=%v, enumeration sat=%v (asserted %v assumps %v)",
					iter, round, got, want, asserted, assumps)
			}
			if got == Sat {
				env := s.Model()
				for _, c := range all {
					v, err := smt.Eval(c, env)
					if err != nil {
						t.Fatalf("iter %d round %d: eval: %v", iter, round, err)
					}
					if v != 1 {
						t.Fatalf("iter %d round %d: model violates %v", iter, round, c)
					}
				}
			}
		}
	}
}
