package bitblast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"symriscv/internal/sat"
	"symriscv/internal/smt"
)

// solveEq asserts t == want (width-w) plus the variable pins and solves.
func solveEq(t *testing.T, ctx *smt.Context, b *Blaster, s *sat.Solver, conds ...*smt.Term) sat.Status {
	t.Helper()
	lits := make([]sat.Lit, len(conds))
	for i, c := range conds {
		lits[i] = b.LitFor(c)
	}
	return s.Solve(lits...)
}

func TestConstantBits(t *testing.T) {
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	bits := b.Bits(ctx.BV(8, 0xa5))
	if len(bits) != 8 {
		t.Fatalf("got %d bits", len(bits))
	}
	if s.Solve() != sat.Sat {
		t.Fatal("trivial instance unsat")
	}
	v, ok := b.ModelValue(ctx.BV(8, 0xa5))
	if !ok || v != 0xa5 {
		t.Fatalf("ModelValue = %#x, %v", v, ok)
	}
}

func TestGateCachingReusesLiterals(t *testing.T) {
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	x := ctx.Var("x", 16)
	y := ctx.Var("y", 16)
	sum := ctx.Add(x, y)
	n1 := s.NumVars()
	_ = b.Bits(sum)
	n2 := s.NumVars()
	if n2 <= n1 {
		t.Fatal("encoding created no variables")
	}
	// Encoding the same term again must not grow the instance.
	_ = b.Bits(sum)
	_ = b.Bits(ctx.Add(y, x)) // commutative: interned to the same term
	if s.NumVars() != n2 {
		t.Fatalf("cache miss: vars grew %d -> %d", n2, s.NumVars())
	}
}

func TestXorPolarityNormalisation(t *testing.T) {
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	x := ctx.Var("x", 1)
	y := ctx.Var("y", 1)
	a := b.Bits(ctx.Xor(x, y))[0]
	c := b.Bits(ctx.Xor(x, ctx.Not(y)))[0]
	if a != c.Neg() {
		t.Fatal("xor with negated input should share the gate with flipped polarity")
	}
}

func TestModelValueUnencoded(t *testing.T) {
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	x := ctx.Var("x", 8)
	if _, ok := b.ModelValue(x); ok {
		t.Fatal("unencoded term should report !ok")
	}
	_ = b.Bits(x)
	if s.Solve() != sat.Sat {
		t.Fatal("unsat?")
	}
	if _, ok := b.ModelValue(x); !ok {
		t.Fatal("encoded term should report ok")
	}
}

// TestRandomTermEquivalence is the package-local version of the solver
// cross-check: for random small expressions and inputs, the CNF encoding
// must agree with the evaluator.
func TestRandomTermEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	x := ctx.Var("x", 16)
	y := ctx.Var("y", 16)

	exprs := []func(a, c *smt.Term) *smt.Term{
		func(a, c *smt.Term) *smt.Term { return ctx.Add(a, c) },
		func(a, c *smt.Term) *smt.Term { return ctx.Sub(a, c) },
		func(a, c *smt.Term) *smt.Term { return ctx.Xor(ctx.Add(a, c), c) },
		func(a, c *smt.Term) *smt.Term { return ctx.Neg(a) },
		func(a, c *smt.Term) *smt.Term { return ctx.Shl(a, ctx.And(c, ctx.BV(16, 15))) },
		func(a, c *smt.Term) *smt.Term { return ctx.Ashr(a, ctx.And(c, ctx.BV(16, 15))) },
		func(a, c *smt.Term) *smt.Term { return ctx.Ite(ctx.Slt(a, c), a, c) },
		func(a, c *smt.Term) *smt.Term { return ctx.Concat(ctx.Extract(a, 7, 0), ctx.Extract(c, 15, 8)) },
		func(a, c *smt.Term) *smt.Term { return ctx.SExt(ctx.Extract(a, 11, 4), 16) },
	}
	for i := 0; i < 40; i++ {
		e := exprs[i%len(exprs)](x, y)
		xv := rng.Uint64() & 0xffff
		yv := rng.Uint64() & 0xffff
		want, err := smt.Eval(e, smt.MapEnv{"x": xv, "y": yv})
		if err != nil {
			t.Fatal(err)
		}
		pins := []*smt.Term{
			ctx.Eq(x, ctx.BV(16, xv)),
			ctx.Eq(y, ctx.BV(16, yv)),
		}
		if got := solveEq(t, ctx, b, s, append(pins, ctx.Eq(e, ctx.BV(16, want)))...); got != sat.Sat {
			t.Fatalf("iter %d: equality unsat (e=%v)", i, e)
		}
		if got := solveEq(t, ctx, b, s, append(pins, ctx.Ne(e, ctx.BV(16, want)))...); got != sat.Unsat {
			t.Fatalf("iter %d: disequality sat (e=%v)", i, e)
		}
	}
}

// TestUltBoundaryProperty checks the comparator encoding at random points,
// including equals.
func TestUltBoundaryProperty(t *testing.T) {
	f := func(a, c uint16) bool {
		ctx := smt.NewContext()
		s := sat.New()
		b := New(ctx, s)
		x := ctx.Var("x", 16)
		y := ctx.Var("y", 16)
		pinX := b.LitFor(ctx.Eq(x, ctx.BV(16, uint64(a))))
		pinY := b.LitFor(ctx.Eq(y, ctx.BV(16, uint64(c))))
		lt := b.LitFor(ctx.Ult(x, y))
		if s.Solve(pinX, pinY, lt) == sat.Sat != (a < c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropagationComplete pins the property the SAT solver's input-bit
// branching relies on: once every free term bit is fixed, unit propagation
// alone determines every gate the blaster emits. For each operator the
// blaster lowers, the input bits are fixed by assumptions; Solve must then
// take no branching decision, and the model must agree with smt.Eval. That
// query's cone holds the inputs only, so the term is read from its gate
// definitions; a second query on a fresh solver pins the term to its value,
// which brings all its gates into the cone, and must take no decision
// either.
func TestPropagationComplete(t *testing.T) {
	const w = 8
	cases := []struct {
		kind  smt.Kind
		build func(ctx *smt.Context, x, y *smt.Term) *smt.Term
	}{
		{smt.KAdd, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Add(x, y) }},
		{smt.KSub, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Sub(x, y) }},
		{smt.KNeg, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Neg(x) }},
		{smt.KAnd, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.And(x, y) }},
		{smt.KOr, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Or(x, y) }},
		{smt.KXor, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Xor(x, y) }},
		{smt.KNot, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Not(x) }},
		// Full-width shift amounts, so out-of-range shifts are covered too.
		{smt.KShl, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Shl(x, y) }},
		{smt.KLshr, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Lshr(x, y) }},
		{smt.KAshr, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Ashr(x, y) }},
		{smt.KEq, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Eq(x, y) }},
		{smt.KUlt, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Ult(x, y) }},
		{smt.KUle, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Ule(x, y) }},
		{smt.KSlt, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Slt(x, y) }},
		{smt.KSle, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Sle(x, y) }},
		{smt.KIte, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Ite(ctx.Ult(x, y), ctx.Add(x, y), x) }},
		{smt.KIte, func(ctx *smt.Context, x, y *smt.Term) *smt.Term {
			return ctx.Ite(ctx.Slt(x, y), ctx.Ule(y, x), ctx.Eq(x, ctx.Not(y)))
		}},
		{smt.KExtract, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Extract(ctx.Xor(ctx.Add(x, y), y), 6, 2) }},
		{smt.KConcat, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.Concat(ctx.Sub(x, y), x) }},
		{smt.KZExt, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.ZExt(ctx.Add(x, y), 2*w) }},
		{smt.KSExt, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.SExt(ctx.Add(x, y), 2*w) }},
		{smt.KBAnd, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.BAnd(ctx.Ult(x, y), ctx.Slt(y, x)) }},
		{smt.KBOr, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.BOr(ctx.Ult(x, y), ctx.Slt(y, x)) }},
		{smt.KBNot, func(ctx *smt.Context, x, y *smt.Term) *smt.Term { return ctx.BNot(ctx.Eq(ctx.Add(x, y), x)) }},
	}
	rng := rand.New(rand.NewSource(13))
	for _, tc := range cases {
		ctx := smt.NewContext()
		s := sat.New()
		b := New(ctx, s)
		x, y := ctx.Var("x", w), ctx.Var("y", w)
		e := tc.build(ctx, x, y)
		if e.Kind() != tc.kind {
			t.Fatalf("%v: built a %v term", tc.kind, e.Kind())
		}
		inputs := append(append([]sat.Lit(nil), b.Bits(x)...), b.Bits(y)...)
		if e.IsBool() {
			b.LitFor(e)
		} else {
			b.Bits(e)
		}
		for i := 0; i < 24; i++ {
			xv, yv := rng.Uint64()&0xff, rng.Uint64()&0xff
			switch i {
			case 0:
				yv = 0 // division by zero
			case 1:
				xv, yv = 0x80, 0xff // signed extremes
			}
			assumps := make([]sat.Lit, len(inputs))
			for j, l := range inputs {
				v := xv
				if j >= w {
					v = yv
				}
				assumps[j] = l
				if v>>uint(j%w)&1 == 0 {
					assumps[j] = l.Neg()
				}
			}
			before := s.Stats().Decisions
			if got := s.Solve(assumps...); got != sat.Sat {
				t.Fatalf("%v x=%#x y=%#x: Solve = %v", tc.kind, xv, yv, got)
			}
			if d := s.Stats().Decisions - before; d != 0 {
				t.Fatalf("%v x=%#x y=%#x: %d branching decisions with every input bit fixed", tc.kind, xv, yv, d)
			}
			want, err := smt.Eval(e, smt.MapEnv{"x": xv, "y": yv})
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := b.ModelValue(e); !ok || got != want {
				t.Fatalf("%v x=%#x y=%#x: model %#x, Eval %#x", tc.kind, xv, yv, got, want)
			}

			// Pinning the term to its value puts every gate of it into the
			// cone of a fresh solver; propagation alone must assign them.
			fs := sat.New()
			fb := New(ctx, fs)
			fin := append(append([]sat.Lit(nil), fb.Bits(x)...), fb.Bits(y)...)
			for j, l := range fin {
				if assumps[j] != inputs[j] {
					fin[j] = l.Neg()
				}
			}
			var pin sat.Lit
			switch {
			case !e.IsBool():
				pin = fb.LitFor(ctx.Eq(e, ctx.BV(e.Width(), want)))
			case want == 1:
				pin = fb.LitFor(e)
			default:
				pin = fb.LitFor(e).Neg()
			}
			if got := fs.Solve(append(fin, pin)...); got != sat.Sat {
				t.Fatalf("%v x=%#x y=%#x: pinned to its value: Solve = %v", tc.kind, xv, yv, got)
			}
			if d := fs.Stats().Decisions; d != 0 {
				t.Fatalf("%v x=%#x y=%#x: %d branching decisions with the term in the cone", tc.kind, xv, yv, d)
			}
		}
	}
}

// TestModelValueOutsideCone checks ModelValue against smt.Eval over the
// model's inputs for every encoded term, whether or not the query's cone
// reaches it. Queries constrain one or two of the terms at a time and share
// prefixes, so most terms are read from gate definitions rather than from
// assignments, and the trail kept between queries was made under another
// cone.
func TestModelValueOutsideCone(t *testing.T) {
	const w = 8
	rng := rand.New(rand.NewSource(5))
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	x, y, z := ctx.Var("x", w), ctx.Var("y", w), ctx.Var("z", w)
	terms := []*smt.Term{
		ctx.Add(x, y),
		ctx.Shl(x, z),
		ctx.Ite(ctx.Ult(y, z), y, ctx.Sub(y, z)),
		ctx.Xor(ctx.Sub(z, x), y),
		ctx.Ite(ctx.Slt(x, z), ctx.Sub(x, y), ctx.Shl(z, ctx.And(y, ctx.BV(w, 7)))),
		ctx.Concat(ctx.Extract(ctx.Add(x, z), 3, 0), ctx.Extract(y, 7, 4)),
		ctx.Ult(ctx.Add(x, z), y),
		ctx.Eq(ctx.Xor(x, y), z),
	}
	for _, e := range terms {
		if e.IsBool() {
			b.LitFor(e)
		} else {
			b.Bits(e)
		}
	}
	cond := func() *smt.Term {
		e := terms[rng.Intn(len(terms))]
		if e.IsBool() {
			if rng.Intn(2) == 0 {
				return ctx.BNot(e)
			}
			return e
		}
		k := ctx.BV(e.Width(), rng.Uint64()&(1<<uint(e.Width())-1))
		if rng.Intn(2) == 0 {
			return ctx.Ult(e, k)
		}
		return ctx.Ult(k, e)
	}
	var conds []*smt.Term
	sats := 0
	for q := 0; q < 200; q++ {
		conds = conds[:len(conds)-rng.Intn(min(len(conds), 2)+1)]
		conds = append(conds, cond())
		lits := make([]sat.Lit, len(conds))
		for i, c := range conds {
			lits[i] = b.LitFor(c)
		}
		if s.Solve(lits...) != sat.Sat {
			conds = conds[:0]
			continue
		}
		sats++
		env := smt.MapEnv{}
		for _, v := range []*smt.Term{x, y, z} {
			val, ok := b.ModelValue(v)
			if !ok {
				t.Fatalf("query %d: input %v not encoded", q, v)
			}
			env[v.Name()] = val
		}
		for _, e := range append(append([]*smt.Term(nil), terms...), conds...) {
			want, err := smt.Eval(e, env)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := b.ModelValue(e); !ok || got != want {
				t.Fatalf("query %d: ModelValue(%v) = %#x, Eval over %v = %#x", q, e, got, env, want)
			}
		}
		for _, c := range conds {
			if v, _ := b.ModelValue(c); v != 1 {
				t.Fatalf("query %d: model violates assumption %v", q, c)
			}
		}
	}
	if sats < 100 {
		t.Fatalf("only %d of 200 queries were sat", sats)
	}
}

// TestLitForHitAllocs: looking up an already encoded term allocates nothing
// and reaches no map. The gate cache is swapped for nil during the hits, so a
// lookup that fell through to encoding would panic on its first gate insert.
// The constant-true term checks that literal 0 (the reserved true literal)
// reads as an encoding, not as an empty slot.
func TestLitForHitAllocs(t *testing.T) {
	ctx := smt.NewContext()
	s := sat.New()
	b := New(ctx, s)
	x, y := ctx.Var("x", 32), ctx.Var("y", 32)
	cond := ctx.Ult(ctx.Add(x, y), ctx.Xor(x, y))
	sum := ctx.Add(x, y)
	tru := ctx.True()
	l, bits, lt := b.LitFor(cond), b.Bits(sum), b.LitFor(tru)
	if lt != b.lTrue {
		t.Fatalf("LitFor(true) = %v, want %v", lt, b.lTrue)
	}
	vars := s.NumVars()

	gates := b.gates
	b.gates = nil
	n := testing.AllocsPerRun(100, func() {
		if b.LitFor(cond) != l || b.LitFor(tru) != lt || &b.Bits(sum)[0] != &bits[0] {
			t.Fatal("hit returned a different encoding")
		}
	})
	b.gates = gates
	if n != 0 {
		t.Fatalf("encoding hit allocates %v times per run, want 0", n)
	}
	if s.NumVars() != vars {
		t.Fatalf("hits grew the instance: %d -> %d vars", vars, s.NumVars())
	}
}
