package solver

import (
	"math/rand"
	"testing"

	"symriscv/internal/smt"
)

func TestSimpleSatAndModel(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("x", 32)
	y := ctx.Var("y", 32)
	sum := ctx.Add(x, y)

	if got := s.Check(ctx.Eq(sum, ctx.BV(32, 100)), ctx.Ult(x, ctx.BV(32, 10))); got != Sat {
		t.Fatalf("Check = %v, want Sat", got)
	}
	xv, yv := s.ModelValue(x), s.ModelValue(y)
	if (xv+yv)&0xffffffff != 100 || xv >= 10 {
		t.Fatalf("model x=%d y=%d does not satisfy constraints", xv, yv)
	}
}

func TestSimpleUnsat(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("x", 8)
	if got := s.Check(ctx.Ult(x, ctx.BV(8, 5)), ctx.Ult(ctx.BV(8, 200), x)); got != Unsat {
		t.Fatalf("Check = %v, want Unsat", got)
	}
}

func TestModelValueOfUnencodedTerm(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("x", 32)
	if s.Check(ctx.Eq(x, ctx.BV(32, 7))) != Sat {
		t.Fatal("want Sat")
	}
	// y and (x+y)^(y<<3) were never part of a query.
	y := ctx.Var("y", 32)
	mix := ctx.Xor(ctx.Add(x, y), ctx.Shl(y, ctx.BV(32, 3)))
	got := s.ModelValue(mix)
	yv := s.ModelValue(y)
	want := ((7 + yv) ^ yv<<3) & 0xffffffff
	if got != want {
		t.Fatalf("ModelValue((x+y)^(y<<3)) = %d, want %d", got, want)
	}
}

// randTerm builds a random 32-bit term over the given variables, with depth
// bounded by d.
func randTerm(rng *rand.Rand, ctx *smt.Context, vars []*smt.Term, d int) *smt.Term {
	if d == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return ctx.BV(32, rng.Uint64())
		}
		return vars[rng.Intn(len(vars))]
	}
	a := randTerm(rng, ctx, vars, d-1)
	b := randTerm(rng, ctx, vars, d-1)
	switch rng.Intn(13) {
	case 0:
		return ctx.Add(a, b)
	case 1:
		return ctx.Sub(a, b)
	case 2:
		return ctx.Xor(ctx.Add(a, b), a)
	case 3:
		return ctx.And(a, b)
	case 4:
		return ctx.Or(a, b)
	case 5:
		return ctx.Xor(a, b)
	case 6:
		return ctx.Not(a)
	case 7:
		return ctx.Neg(a)
	case 8:
		return ctx.Shl(a, b)
	case 9:
		return ctx.Lshr(a, b)
	case 10:
		return ctx.Ashr(a, b)
	case 11:
		return ctx.Ite(ctx.Ult(a, b), a, b)
	default:
		return ctx.SExt(ctx.Extract(a, 15, 0), 32)
	}
}

// TestBlastAgainstEval cross-validates the bit-blasted encoding against the
// term evaluator: for random terms e and random concrete inputs, asserting
// inputs and e != eval(e) must be Unsat, and e == eval(e) must be Sat.
func TestBlastAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		ctx := smt.NewContext()
		s := New(ctx)
		x := ctx.Var("x", 32)
		y := ctx.Var("y", 32)
		e := randTerm(rng, ctx, []*smt.Term{x, y}, 3)

		xv := rng.Uint64() & 0xffffffff
		yv := rng.Uint64() & 0xffffffff
		want, err := smt.Eval(e, smt.MapEnv{"x": xv, "y": yv})
		if err != nil {
			t.Fatalf("iter %d: eval: %v", iter, err)
		}
		fixX := ctx.Eq(x, ctx.BV(32, xv))
		fixY := ctx.Eq(y, ctx.BV(32, yv))

		if got := s.Check(fixX, fixY, ctx.Eq(e, ctx.BV(32, want))); got != Sat {
			t.Fatalf("iter %d: e == eval(e) gave %v (e=%v x=%#x y=%#x want=%#x)", iter, got, e, xv, yv, want)
		}
		if got := s.Check(fixX, fixY, ctx.Ne(e, ctx.BV(32, want))); got != Unsat {
			t.Fatalf("iter %d: e != eval(e) gave %v (e=%v x=%#x y=%#x want=%#x)", iter, got, e, xv, yv, want)
		}
	}
}

// TestComparisonEncodings checks each relational operator both ways on
// random constants via the solver.
func TestComparisonEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("cx", 32)
	y := ctx.Var("cy", 32)
	for iter := 0; iter < 40; iter++ {
		xv := rng.Uint64() & 0xffffffff
		yv := rng.Uint64() & 0xffffffff
		if iter%5 == 0 {
			yv = xv // exercise equality boundaries
		}
		fix := []*smt.Term{ctx.Eq(x, ctx.BV(32, xv)), ctx.Eq(y, ctx.BV(32, yv))}
		rels := []struct {
			term *smt.Term
			want bool
		}{
			{ctx.Eq(x, y), xv == yv},
			{ctx.Ult(x, y), xv < yv},
			{ctx.Ule(x, y), xv <= yv},
			{ctx.Slt(x, y), int32(xv) < int32(yv)},
			{ctx.Sle(x, y), int32(xv) <= int32(yv)},
		}
		for i, r := range rels {
			q := r.term
			if !r.want {
				q = ctx.BNot(q)
			}
			if got := s.Check(append(fix[:2:2], q)...); got != Sat {
				t.Fatalf("iter %d rel %d: got %v, want Sat (x=%#x y=%#x)", iter, i, got, xv, yv)
			}
			if got := s.Check(append(fix[:2:2], ctx.BNot(q))...); got != Unsat {
				t.Fatalf("iter %d rel %d negated: got %v, want Unsat (x=%#x y=%#x)", iter, i, got, xv, yv)
			}
		}
	}
}

// TestShiftEdgeCases pins the SMT shift semantics for amounts >= width.
func TestShiftEdgeCases(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("sx", 8)
	amt := ctx.Var("samt", 8)
	fixX := ctx.Eq(x, ctx.BV(8, 0x85))
	fixA := ctx.Eq(amt, ctx.BV(8, 9))

	if got := s.Check(fixX, fixA, ctx.Eq(ctx.Shl(x, amt), ctx.BV(8, 0))); got != Sat {
		t.Fatalf("shl overflow: %v", got)
	}
	if got := s.Check(fixX, fixA, ctx.Eq(ctx.Lshr(x, amt), ctx.BV(8, 0))); got != Sat {
		t.Fatalf("lshr overflow: %v", got)
	}
	if got := s.Check(fixX, fixA, ctx.Eq(ctx.Ashr(x, amt), ctx.BV(8, 0xff))); got != Sat {
		t.Fatalf("ashr overflow (negative): %v", got)
	}
	if got := s.Check(fixX, fixA, ctx.Ne(ctx.Ashr(x, amt), ctx.BV(8, 0xff))); got != Unsat {
		t.Fatalf("ashr overflow uniqueness: %v", got)
	}
}

// TestIncrementalReuse runs many related queries on one solver, mimicking the
// engine's path-constraint pattern, and checks consistency.
func TestIncrementalReuse(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	instr := ctx.Var("instr", 32)
	opcode := ctx.Extract(instr, 6, 0)

	// Walk through "decode" queries as the engine would.
	op1 := ctx.Eq(opcode, ctx.BV(7, 0x33))
	op2 := ctx.Eq(opcode, ctx.BV(7, 0x13))
	if s.Check(op1) != Sat || s.Check(op2) != Sat {
		t.Fatal("individual opcodes must be feasible")
	}
	if s.Check(op1, op2) != Unsat {
		t.Fatal("two different opcodes at once must be infeasible")
	}
	funct3 := ctx.Extract(instr, 14, 12)
	for i := uint64(0); i < 8; i++ {
		if s.Check(op1, ctx.Eq(funct3, ctx.BV(3, i))) != Sat {
			t.Fatalf("funct3=%d under op1 must be feasible", i)
		}
	}
	st := s.Stats()
	if st.Checks != 11 {
		t.Fatalf("Checks = %d, want 11", st.Checks)
	}
	if st.SatAns != 10 || st.UnsatAns != 1 {
		t.Fatalf("answers: %d sat %d unsat", st.SatAns, st.UnsatAns)
	}
}

func TestBoolConnectives(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	a := ctx.Var("ba", 1)
	b := ctx.Var("bb", 1)
	pa := ctx.Eq(a, ctx.BV(1, 1))
	pb := ctx.Eq(b, ctx.BV(1, 1))

	if s.Check(ctx.BAnd(pa, ctx.BNot(pa))) != Unsat {
		t.Fatal("a && !a must be unsat")
	}
	// xor <-> (or and not and), xor as a compare of 1-bit ites
	if got := s.Check(boolXor(ctx, boolXor(ctx, pa, pb), ctx.BAnd(ctx.BOr(pa, pb), ctx.BNot(ctx.BAnd(pa, pb))))); got != Unsat {
		t.Fatalf("xor/iff tautology: got %v, want Unsat", got)
	}
	// not (a and b -> a)
	if got := s.Check(ctx.BAnd(ctx.BAnd(pa, pb), ctx.BNot(pa))); got != Unsat {
		t.Fatalf("implication tautology: got %v, want Unsat", got)
	}
}

// TestOddWidthEncodings exercises the barrel shifter, comparators and
// arithmetic at a non-power-of-two width (12 bits), where the shift-overflow
// handling takes its general path.
func TestOddWidthEncodings(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x := ctx.Var("ox", 12)
	y := ctx.Var("oy", 12)
	rng := rand.New(rand.NewSource(31))
	mask := uint64(0xfff)
	for i := 0; i < 30; i++ {
		xv := rng.Uint64() & mask
		yv := rng.Uint64() & mask
		if i == 0 {
			yv = 13 // shift amount > width
		}
		exprs := []*smt.Term{
			ctx.Add(x, y),
			ctx.Sub(x, y),
			ctx.Shl(x, y),
			ctx.Lshr(x, y),
			ctx.Ashr(x, y),
			ctx.Xor(x, ctx.Neg(y)),
			ctx.Ite(ctx.Slt(x, y), ctx.Neg(x), ctx.Not(y)),
		}
		fix := []*smt.Term{ctx.Eq(x, ctx.BV(12, xv)), ctx.Eq(y, ctx.BV(12, yv))}
		for j, e := range exprs {
			want, err := smt.Eval(e, smt.MapEnv{"ox": xv, "oy": yv})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Check(fix[0], fix[1], ctx.Ne(e, ctx.BV(12, want))); got != Unsat {
				t.Fatalf("iter %d expr %d: width-12 encoding disagrees with eval (x=%#x y=%#x want=%#x)", i, j, xv, yv, want)
			}
		}
	}
}

// TestWidthOneTerms pins the degenerate single-bit vector behaviour.
func TestWidthOneTerms(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	a := ctx.Var("w1a", 1)
	b := ctx.Var("w1b", 1)
	// a + b at width 1 is XOR.
	if got := s.Check(boolXor(ctx,
		ctx.Eq(ctx.Add(a, b), ctx.BV(1, 1)),
		ctx.Eq(ctx.Xor(a, b), ctx.BV(1, 1)),
	)); got != Unsat {
		t.Fatalf("width-1 add != xor: %v", got)
	}
	// a - b and -a at width 1 are XOR and a.
	if got := s.Check(ctx.Ne(ctx.Sub(a, b), ctx.Xor(a, b))); got != Unsat {
		t.Fatalf("width-1 sub != xor: %v", got)
	}
	if got := s.Check(ctx.Ne(ctx.Neg(a), a)); got != Unsat {
		t.Fatalf("width-1 neg != identity: %v", got)
	}
}

// TestModelForRestrictsToGivenVars: ModelFor must agree with Model on the
// requested variables and must not materialise anything else.
func TestModelForRestrictsToGivenVars(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	a := ctx.Var("mf_a", 16)
	b := ctx.Var("mf_b", 16)
	ctx.Var("mf_unrelated", 16) // interned but never asked for
	if got := s.Check(ctx.Eq(ctx.Add(a, b), ctx.BV(16, 0x1234)), ctx.Eq(b, ctx.BV(16, 0x34))); got != Sat {
		t.Fatalf("check = %v, want sat", got)
	}
	full := s.Model()
	part := s.ModelFor([]*smt.Term{a, b})
	if len(part) != 2 {
		t.Fatalf("ModelFor returned %d bindings, want 2: %v", len(part), part)
	}
	for _, name := range []string{"mf_a", "mf_b"} {
		if part[name] != full[name] {
			t.Fatalf("ModelFor[%s] = %#x, Model[%s] = %#x", name, part[name], name, full[name])
		}
	}
	if _, ok := part["mf_unrelated"]; ok {
		t.Fatal("ModelFor leaked a variable that was not requested")
	}
	if part["mf_a"]+part["mf_b"] != 0x1234 {
		t.Fatalf("model does not satisfy constraint: %#x + %#x", part["mf_a"], part["mf_b"])
	}
	// A variable that was never encoded reads as zero, like Model does.
	free := ctx.Var("mf_free", 8)
	if env := s.ModelFor([]*smt.Term{free}); env["mf_free"] != 0 {
		t.Fatalf("unconstrained variable = %#x, want 0", env["mf_free"])
	}
}

// TestWarmCheckAllocs: once its terms are blasted, a Check translates its assumptions into the solver's reused buffer, not a new
// slice per call.
func TestWarmCheckAllocs(t *testing.T) {
	ctx := smt.NewContext()
	s := New(ctx)
	x, y := ctx.Var("x", 8), ctx.Var("y", 8)
	sat := []*smt.Term{ctx.Ult(x, y), ctx.Ne(x, ctx.BV(8, 3)), ctx.Eq(ctx.Add(x, y), ctx.BV(8, 9))}
	unsat := []*smt.Term{ctx.Ult(x, ctx.BV(8, 5)), ctx.Ult(ctx.BV(8, 200), x)}
	if s.Check(sat...) != Sat {
		t.Fatal("warm-up query not Sat")
	}
	if n := testing.AllocsPerRun(50, func() { s.Check(sat...) }); n != 0 {
		t.Fatalf("warm Check allocates %v times, want 0", n)
	}
	if s.Check(unsat...) != Unsat {
		t.Fatal("warm-up query not Unsat")
	}
	if n := testing.AllocsPerRun(50, func() { s.Check(unsat...) }); n != 0 {
		t.Fatalf("warm Unsat Check allocates %v times, want 0", n)
	}
}

// boolXor is the exclusive-or of two Boolean terms, built as a compare of
// their 1-bit encodings.
func boolXor(ctx *smt.Context, a, b *smt.Term) *smt.Term {
	return ctx.Ne(ctx.BoolToBV(a), ctx.BoolToBV(b))
}
