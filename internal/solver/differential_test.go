package solver

import (
	"math/rand"
	"testing"

	"symriscv/internal/smt"
)

// TestAssertConstantFolding pins the constant fast paths in Assert: true
// terms (the rewriter's usual verdict on redundant path conditions) must not
// reach the bit-blaster, and false terms must make the instance trivially
// unsat without corrupting failed-assumption analysis on later checks.
func TestAssertConstantFolding(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("x", 8)

	before := s.sat.NumVars()
	s.Assert(ctx.True())
	s.Assert(ctx.Eq(ctx.BV(8, 3), ctx.BV(8, 3))) // folds to true
	if s.sat.NumVars() != before || s.sat.NumClauses() != 0 {
		t.Fatalf("true assert touched the SAT instance: %d vars %d clauses",
			s.sat.NumVars(), s.sat.NumClauses())
	}
	if s.Check() != Sat {
		t.Fatal("true asserts must keep the instance sat")
	}

	s.Assert(ctx.Eq(x, ctx.BV(8, 1)))
	if s.Check() != Sat || s.ModelValue(x) != 1 {
		t.Fatal("normal assert broken after constant asserts")
	}

	s.Assert(ctx.False())
	if s.Check() != Unsat {
		t.Fatal("false assert must make the instance unsat")
	}
	// Clause-set-level conflict: CheckCore must answer Unsat with a nil core
	// (callers fall back to the full assumption set), and stay that way.
	res, core := s.CheckCore(ctx.Eq(x, ctx.BV(8, 1)))
	if res != Unsat || core != nil {
		t.Fatalf("CheckCore after false assert: %v core=%v, want Unsat nil", res, core)
	}
	if s.Check(ctx.Eq(x, ctx.BV(8, 2))) != Unsat {
		t.Fatal("solver must stay trivially unsat")
	}
}

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
// constraint sets with incremental asserts and assumption queries. The
// inputs are two 4-bit variables zero-extended to 32 bits, so enumerating
// all 256 assignments with smt.Eval decides every query independently of
// the solver. Answers must agree with it; Sat models are re-checked by the
// term evaluator; Unsat cores are re-verified by a fresh solver.
func TestIncrementalDifferentialQFBV(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		ctx := smt.NewContext()
		s := New(ctx)
		vars := []*smt.Term{ctx.ZExt(ctx.Var("x", 4), 32), ctx.ZExt(ctx.Var("y", 4), 32)}

		var asserted []*smt.Term
		for round := 0; round < 8; round++ {
			if rng.Intn(3) == 0 {
				c := randConstraint(rng, ctx, vars)
				asserted = append(asserted, c)
				s.Assert(c)
			}
			assumps := make([]*smt.Term, 1+rng.Intn(3))
			for i := range assumps {
				assumps[i] = randConstraint(rng, ctx, vars)
			}
			all := append(append([]*smt.Term{}, asserted...), assumps...)
			got, core := s.CheckCore(assumps...)
			if want := satisfiableByEval(t, all); (got == Sat) != want {
				t.Fatalf("iter %d round %d: solver=%v, enumeration sat=%v (asserted %v assumps %v)",
					iter, round, got, want, asserted, assumps)
			}
			switch got {
			case Sat:
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
			case Unsat:
				// Re-verify the core (or, for a clause-set-level conflict,
				// the asserted facts alone) on a fresh solver.
				chk := New(ctx)
				for _, c := range asserted {
					chk.Assert(c)
				}
				if got := chk.Check(core...); got != Unsat {
					t.Fatalf("iter %d round %d: core %v not actually unsat (%v)",
						iter, round, core, got)
				}
			}
		}
	}
}
