package bitblast

import (
	"math/rand"
	"testing"

	"symriscv/internal/sat"
	"symriscv/internal/smt"
)

// fuzzTerm decodes bytes into an 8-bit term over vars, at most d operators
// deep. An exhausted input reads as zero bytes, which decode to leaves.
func fuzzTerm(ctx *smt.Context, vars []*smt.Term, next func() byte, d int) *smt.Term {
	op := next()
	if d == 0 || op < 64 {
		if op%3 == 0 {
			return ctx.BV(8, uint64(next()))
		}
		return vars[int(op)%len(vars)]
	}
	a := fuzzTerm(ctx, vars, next, d-1)
	b := fuzzTerm(ctx, vars, next, d-1)
	switch op % 16 {
	case 0:
		return ctx.Add(a, b)
	case 1:
		return ctx.Sub(a, b)
	case 2:
		return ctx.Xor(ctx.Add(a, b), a)
	case 3:
		return ctx.Ite(ctx.Ult(a, b), ctx.Sub(b, a), a)
	case 4:
		return ctx.Shl(ctx.Xor(a, b), ctx.And(b, ctx.BV(8, 7)))
	case 5:
		return ctx.And(a, b)
	case 6:
		return ctx.Or(a, b)
	case 7:
		return ctx.Xor(a, ctx.Not(b))
	case 8:
		return ctx.Neg(a)
	case 9:
		return ctx.Shl(a, b)
	case 10:
		return ctx.Lshr(a, b)
	case 11:
		return ctx.Ashr(a, b)
	case 12:
		return ctx.Ite(ctx.Slt(a, b), a, b)
	case 13:
		return ctx.Ite(ctx.BOr(ctx.Eq(a, b), ctx.Ule(b, a)), b, a)
	case 14:
		return ctx.Concat(ctx.Extract(a, 3, 0), ctx.Extract(b, 7, 4))
	default:
		return ctx.Add(ctx.SExt(ctx.Extract(a, 5, 0), 8), ctx.ZExt(ctx.Extract(b, 6, 2), 8))
	}
}

// FuzzBlastEval cross-checks the bit-blaster against smt.Eval on terms
// decoded from bytes. A constraint over the term is solved and the term's
// ModelValue must equal its evaluation under the model's inputs; then the
// inputs are pinned and e == eval(e) must be Sat, e != eval(e) Unsat.
func FuzzBlastEval(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 8+4*i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		ctx := smt.NewContext()
		s := sat.New()
		b := New(ctx, s)
		vars := []*smt.Term{ctx.Var("x", 8), ctx.Var("y", 8), ctx.Var("z", 8)}
		pins := [3]uint64{uint64(next()), uint64(next()), uint64(next())}
		rel, bound := next(), ctx.BV(8, uint64(next()))
		e := fuzzTerm(ctx, vars, next, 4)

		cons := [...]func(a, c *smt.Term) *smt.Term{ctx.Eq, ctx.Ult, ctx.Slt, ctx.Ule}[rel%4](e, bound)
		// e == r keeps e in the query's cone, whatever cons folds to.
		keep := ctx.Eq(e, ctx.Var("r", 8))
		if s.Solve(b.LitFor(cons), b.LitFor(keep)) == sat.Sat {
			env := smt.MapEnv{}
			for _, v := range vars {
				env[v.Name()], _ = b.ModelValue(v)
			}
			got, ok := b.ModelValue(e)
			want, err := smt.Eval(e, env)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || got != want {
				t.Fatalf("ModelValue(%v) = %#x (encoded %v), Eval under %v = %#x", e, got, ok, env, want)
			}
			if holds, _ := smt.EvalBool(cons, env); !holds {
				t.Fatalf("model %v violates %v", env, cons)
			}
		}

		env := smt.MapEnv{"x": pins[0], "y": pins[1], "z": pins[2]}
		want, err := smt.Eval(e, env)
		if err != nil {
			t.Fatal(err)
		}
		lits := []sat.Lit{b.LitFor(keep)}
		for i, v := range vars {
			lits = append(lits, b.LitFor(ctx.Eq(v, ctx.BV(8, pins[i]))))
		}
		if got := s.Solve(append(lits, b.LitFor(ctx.Eq(e, ctx.BV(8, want))))...); got != sat.Sat {
			t.Fatalf("%v == eval %#x under %v: got %v, want Sat", e, want, env, got)
		}
		if got, _ := b.ModelValue(e); got != want {
			t.Fatalf("pinned ModelValue(%v) = %#x, Eval = %#x", e, got, want)
		}
		if got := s.Solve(append(lits, b.LitFor(ctx.Ne(e, ctx.BV(8, want))))...); got != sat.Unsat {
			t.Fatalf("%v != eval %#x under %v: got %v, want Unsat", e, want, env, got)
		}
	})
}
