package smt

import (
	"testing"
	"testing/quick"
)

func TestHashConsing(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	y := c.Var("y", 32)
	if c.Var("x", 32) != x {
		t.Fatal("same variable not interned")
	}
	if c.Add(x, y) != c.Add(x, y) {
		t.Fatal("identical terms not interned")
	}
	if c.Add(x, y) != c.Add(y, x) {
		t.Fatal("commutative operands not canonicalised")
	}
	if c.BV(8, 0x1ff).ConstVal() != 0xff {
		t.Fatal("constant not masked to width")
	}
	if c.Sub(x, y) == c.Sub(y, x) {
		t.Fatal("non-commutative operands wrongly merged")
	}
}

func TestVarRedeclarePanics(t *testing.T) {
	c := NewContext()
	c.Var("v", 8)
	defer func() {
		if _, ok := recover().(*BuildError); !ok {
			t.Fatal("expected a *BuildError panic on width-changing redeclaration")
		}
	}()
	c.Var("v", 16)
}

// TestVarsInternedByName: variables never enter the hash-cons table, whose
// key carries no name, so they are interned by name alone. Same-width
// variables with different names must stay distinct terms, and so must the
// terms built over them.
func TestVarsInternedByName(t *testing.T) {
	c := NewContext()
	a := c.Var("a", 8)
	b := c.Var("b", 8)
	if a == b || a.ID() == b.ID() {
		t.Fatal("same-width variables with different names merged")
	}
	if c.StructuralHash(a) == c.StructuralHash(b) {
		t.Fatal("distinct variables share a structural hash")
	}
	one := c.BV(8, 1)
	if c.Add(a, one) == c.Add(b, one) || c.Ult(a, one) == c.Ult(b, one) {
		t.Fatal("terms over distinct variables merged")
	}
	n := c.NumTerms()
	if c.Var("a", 8) != a || c.Var("b", 8) != b {
		t.Fatal("redeclaration returned a new term")
	}
	if c.NumTerms() != n {
		t.Fatalf("redeclaration interned a term: %d -> %d", n, c.NumTerms())
	}
	if c.TermByID(a.ID()) != a || a.Name() != "a" || a.Width() != 8 {
		t.Fatal("variable not registered under its ID")
	}
	if vs := c.Vars(); len(vs) != 2 || vs[0] != a || vs[1] != b {
		t.Fatalf("Vars = %v, want [a b]", vs)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	c := NewContext()
	a := c.Var("a", 8)
	b := c.Var("b", 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	c.Add(a, b)
}

func TestConstantFolding(t *testing.T) {
	c := NewContext()
	cases := []struct {
		got  *Term
		want uint64
	}{
		{c.Add(c.BV(8, 200), c.BV(8, 100)), 44},
		{c.Sub(c.BV(8, 1), c.BV(8, 2)), 255},
		{c.Neg(c.BV(8, 1)), 255},
		{c.And(c.BV(8, 0xf0), c.BV(8, 0x3c)), 0x30},
		{c.Or(c.BV(8, 0xf0), c.BV(8, 0x0c)), 0xfc},
		{c.Xor(c.BV(8, 0xff), c.BV(8, 0x0f)), 0xf0},
		{c.Not(c.BV(8, 0x0f)), 0xf0},
		{c.Shl(c.BV(8, 1), c.BV(8, 7)), 0x80},
		{c.Shl(c.BV(8, 1), c.BV(8, 8)), 0},
		{c.Lshr(c.BV(8, 0x80), c.BV(8, 7)), 1},
		{c.Ashr(c.BV(8, 0x80), c.BV(8, 7)), 0xff},
		{c.Ashr(c.BV(8, 0x40), c.BV(8, 7)), 0},
		{c.Ashr(c.BV(8, 0x80), c.BV(8, 200)), 0xff},
		{c.Concat(c.BV(8, 0xab), c.BV(8, 0xcd)), 0xabcd},
		{c.Extract(c.BV(16, 0xabcd), 11, 4), 0xbc},
		{c.ZExt(c.BV(8, 0x80), 16), 0x80},
		{c.SExt(c.BV(8, 0x80), 16), 0xff80},
		{c.SExt(c.BV(8, 0x7f), 16), 0x7f},
	}
	for i, tc := range cases {
		if !tc.got.IsConst() {
			t.Errorf("case %d: got non-constant %v", i, tc.got)
			continue
		}
		if tc.got.ConstVal() != tc.want {
			t.Errorf("case %d: got %#x want %#x", i, tc.got.ConstVal(), tc.want)
		}
	}
}

func TestBoolFolding(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	y := c.Var("y", 32)
	p := c.Ult(x, y)

	if c.Eq(x, x) != c.True() {
		t.Error("Eq(x,x) != true")
	}
	if c.Ult(x, x) != c.Bool(false) {
		t.Error("Ult(x,x) != false")
	}
	if c.Ult(x, c.BV(32, 0)) != c.Bool(false) {
		t.Error("Ult(x,0) != false")
	}
	if c.Ule(c.BV(32, 0), x) != c.True() {
		t.Error("Ule(0,x) != true")
	}
	if c.BAnd(p, c.BNot(p)) != c.Bool(false) {
		t.Error("p && !p != false")
	}
	if c.BOr(p, c.BNot(p)) != c.True() {
		t.Error("p || !p != true")
	}
	if c.BNot(c.BNot(p)) != p {
		t.Error("double negation not removed")
	}
	if c.Ite(c.True(), x, y) != x || c.Ite(c.Bool(false), x, y) != y {
		t.Error("ite on constant condition not folded")
	}
	if c.Ite(p, x, x) != x {
		t.Error("ite with equal branches not folded")
	}
	if c.Ite(p, c.True(), c.Bool(false)) != p {
		t.Error("boolean ite(p,true,false) != p")
	}
	if c.Ite(p, c.Bool(false), c.True()) != c.BNot(p) {
		t.Error("boolean ite(p,false,true) != !p")
	}
}

func TestExtractSimplifications(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	y := c.Var("y", 8)

	if c.Extract(x, 31, 0) != x {
		t.Error("full-width extract should be identity")
	}
	// Nested extract composition.
	inner := c.Extract(x, 23, 8) // 16 bits
	if got, want := c.Extract(inner, 11, 4), c.Extract(x, 19, 12); got != want {
		t.Errorf("nested extract: got %v want %v", got, want)
	}
	// Extract within one side of a concat.
	cc := c.Concat(y, c.Extract(x, 15, 0))
	if got, want := c.Extract(cc, 7, 0), c.Extract(x, 7, 0); got != want {
		t.Errorf("extract low of concat: got %v want %v", got, want)
	}
	if got, want := c.Extract(cc, 23, 16), y; got != want {
		t.Errorf("extract high of concat: got %v want %v", got, want)
	}
	// Extract inside padding of zext is zero.
	z := c.ZExt(y, 32)
	if got := c.Extract(z, 31, 8); !got.IsConst() || got.ConstVal() != 0 {
		t.Errorf("extract of zext padding: got %v", got)
	}
	if got, want := c.Extract(z, 7, 0), y; got != want {
		t.Errorf("extract of zext body: got %v want %v", got, want)
	}
}

// evalBin builds op(x,y) at width 32 over fresh variables and evaluates it.
func evalBin(t *testing.T, build func(c *Context, x, y *Term) *Term, xv, yv uint64) uint64 {
	t.Helper()
	c := NewContext()
	x := c.Var("x", 32)
	y := c.Var("y", 32)
	term := build(c, x, y)
	got, err := Eval(term, MapEnv{"x": xv, "y": yv})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return got
}

func TestEvalMatchesGoSemantics(t *testing.T) {
	type binCase struct {
		name  string
		build func(c *Context, x, y *Term) *Term
		gold  func(x, y uint32) uint32
	}
	cases := []binCase{
		{"add", func(c *Context, x, y *Term) *Term { return c.Add(x, y) }, func(x, y uint32) uint32 { return x + y }},
		{"sub", func(c *Context, x, y *Term) *Term { return c.Sub(x, y) }, func(x, y uint32) uint32 { return x - y }},
		{"and", func(c *Context, x, y *Term) *Term { return c.And(x, y) }, func(x, y uint32) uint32 { return x & y }},
		{"or", func(c *Context, x, y *Term) *Term { return c.Or(x, y) }, func(x, y uint32) uint32 { return x | y }},
		{"xor", func(c *Context, x, y *Term) *Term { return c.Xor(x, y) }, func(x, y uint32) uint32 { return x ^ y }},
		{"shl", func(c *Context, x, y *Term) *Term { return c.Shl(x, c.And(y, c.BV(32, 31))) },
			func(x, y uint32) uint32 { return x << (y & 31) }},
		{"lshr", func(c *Context, x, y *Term) *Term { return c.Lshr(x, c.And(y, c.BV(32, 31))) },
			func(x, y uint32) uint32 { return x >> (y & 31) }},
		{"ashr", func(c *Context, x, y *Term) *Term { return c.Ashr(x, c.And(y, c.BV(32, 31))) },
			func(x, y uint32) uint32 { return uint32(int32(x) >> (y & 31)) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(x, y uint32) bool {
				got := evalBin(t, tc.build, uint64(x), uint64(y))
				return got == uint64(tc.gold(x, y))
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEvalComparisons(t *testing.T) {
	f := func(x, y uint32) bool {
		c := NewContext()
		tx := c.Var("x", 32)
		ty := c.Var("y", 32)
		env := MapEnv{"x": uint64(x), "y": uint64(y)}
		checks := []struct {
			term *Term
			want bool
		}{
			{c.Eq(tx, ty), x == y},
			{c.Ult(tx, ty), x < y},
			{c.Ule(tx, ty), x <= y},
			{c.Slt(tx, ty), int32(x) < int32(y)},
			{c.Sle(tx, ty), int32(x) <= int32(y)},
			{c.Sge(tx, ty), int32(x) >= int32(y)},
		}
		for _, ch := range checks {
			got, err := EvalBool(ch.term, env)
			if err != nil || got != ch.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSimplifierSoundness checks that aggressive constructor rewrites never
// change the meaning of a composed expression, by evaluating a randomly
// parameterised deep expression against a straightforward Go computation.
func TestSimplifierSoundness(t *testing.T) {
	f := func(x, y, z uint32, k uint8) bool {
		c := NewContext()
		tx, ty, tz := c.Var("x", 32), c.Var("y", 32), c.Var("z", 32)
		kc := c.BV(32, uint64(k&31))

		// ((x + y) ^ (z << k)) - (x & ~y), compared via Slt against z.
		e := c.Sub(
			c.Xor(c.Add(tx, ty), c.Shl(tz, kc)),
			c.And(tx, c.Not(ty)),
		)
		cond := c.Slt(e, tz)

		env := MapEnv{"x": uint64(x), "y": uint64(y), "z": uint64(z)}
		got, err := EvalBool(cond, env)
		if err != nil {
			return false
		}
		gold := int32((x+y)^(z<<(k&31))-(x & ^y)) < int32(z)
		return got == gold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvalUnboundVariable(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	if _, err := Eval(x, MapEnv{}); err == nil {
		t.Fatal("expected error for unbound variable")
	}
}

func TestStringOutput(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	got := c.Add(x, c.BV(8, 0xff)).String()
	want := "(bvadd x #xff)"
	if got != want {
		t.Errorf("String: got %q want %q", got, want)
	}
	if s := c.Extract(x, 6, 2).String(); s != "((_ extract 6 2) x)" {
		t.Errorf("extract String: got %q", s)
	}
	if s := c.True().String(); s != "true" {
		t.Errorf("true String: got %q", s)
	}
}

func TestBoolToBV(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	y := c.Var("y", 32)
	b := c.BoolToBV(c.Ult(x, y))
	v, err := Eval(b, MapEnv{"x": 1, "y": 2})
	if err != nil || v != 1 {
		t.Fatalf("BoolToBV true case: %d, %v", v, err)
	}
	v, err = Eval(b, MapEnv{"x": 2, "y": 1})
	if err != nil || v != 0 {
		t.Fatalf("BoolToBV false case: %d, %v", v, err)
	}
}

func TestConstantChainFolding(t *testing.T) {
	c := NewContext()
	x := c.Var("ccx", 32)

	// (x + 4) + 8 folds to x + 12.
	got := c.Add(c.Add(x, c.BV(32, 4)), c.BV(32, 8))
	want := c.Add(x, c.BV(32, 12))
	if got != want {
		t.Errorf("add chain: %v vs %v", got, want)
	}
	// (x + 4) - 8 folds to x + (-4).
	got = c.Sub(c.Add(x, c.BV(32, 4)), c.BV(32, 8))
	want = c.Add(x, c.BV(32, 0xfffffffc))
	if got != want {
		t.Errorf("sub chain: %v vs %v", got, want)
	}
	// (x + 4) == 12 folds to x == 8.
	gotB := c.Eq(c.Add(x, c.BV(32, 4)), c.BV(32, 12))
	wantB := c.Eq(x, c.BV(32, 8))
	if gotB != wantB {
		t.Errorf("eq shift: %v vs %v", gotB, wantB)
	}
}

// TestChainFoldingSoundness re-validates the new rewrites against concrete
// evaluation on random inputs.
func TestChainFoldingSoundness(t *testing.T) {
	f := func(x, c1, c2 uint32) bool {
		c := NewContext()
		tx := c.Var("x", 32)
		env := MapEnv{"x": uint64(x)}
		e1 := c.Add(c.Add(tx, c.BV(32, uint64(c1))), c.BV(32, uint64(c2)))
		v1, err1 := Eval(e1, env)
		e2 := c.Sub(c.Add(tx, c.BV(32, uint64(c1))), c.BV(32, uint64(c2)))
		v2, err2 := Eval(e2, env)
		eq := c.Eq(c.Add(tx, c.BV(32, uint64(c1))), c.BV(32, uint64(c2)))
		b, err3 := EvalBool(eq, env)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return v1 == uint64(x+c1+c2) && v2 == uint64(x+c1-c2) && b == (x+c1 == c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEvaluatorResetForgetsMemo: a recycled evaluator must re-evaluate every
// term under its new environment, never answer from the old memo.
func TestEvaluatorResetForgetsMemo(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	isOne := c.Eq(x, c.BV(8, 1))
	sum := c.Add(x, c.BV(8, 2))
	ev := NewEvaluator(MapEnv{"x": 1})
	if v, err := ev.EvalBool(isOne); err != nil || !v {
		t.Fatalf("x=1: EvalBool = %v, %v; want true", v, err)
	}
	if v, err := ev.Eval(sum); err != nil || v != 3 {
		t.Fatalf("x=1: Eval(x+2) = %d, %v; want 3", v, err)
	}
	ev.Reset(MapEnv{"x": 7})
	if v, err := ev.EvalBool(isOne); err != nil || v {
		t.Fatalf("after Reset to x=7: EvalBool = %v, %v; want false", v, err)
	}
	if v, err := ev.Eval(sum); err != nil || v != 9 {
		t.Fatalf("after Reset to x=7: Eval(x+2) = %d, %v; want 9", v, err)
	}
	ev.Reset(MapEnv{})
	if _, err := ev.Eval(sum); err == nil {
		t.Fatal("after Reset to an empty env: want an unbound-variable error")
	}
}

// TestHashMemoGrowsGeometrically interleaves term creation with
// StructuralHash calls, the pattern of a query layer hashing each new path
// constraint. The memo must grow by amortized doubling: reallocating it to
// the exact term count on every miss copies it once per new term.
func TestHashMemoGrowsGeometrically(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 32)
	reallocs, last := 0, cap(c.hashMemo)
	for i := 0; i < 10000; i++ {
		c.StructuralHash(c.Ult(x, c.BV(32, uint64(i+1))))
		if n := cap(c.hashMemo); n != last {
			reallocs, last = reallocs+1, n
		}
	}
	if c.NumTerms() < 10000 {
		t.Fatalf("only %d terms interned", c.NumTerms())
	}
	if reallocs > 40 {
		t.Fatalf("hash memo reallocated %d times over %d terms, want O(log n)", reallocs, c.NumTerms())
	}
}
