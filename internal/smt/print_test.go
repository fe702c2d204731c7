package smt

import (
	"strings"
	"testing"
)

func TestStringAllKinds(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	y := c.Var("y", 8)
	p := c.Ult(x, y)
	q := c.Slt(x, y)

	cases := []struct {
		term *Term
		want string
	}{
		{c.Add(x, y), "(bvadd x y)"},
		{c.Sub(x, y), "(bvsub x y)"},
		{c.Neg(x), "(bvneg x)"},
		{c.And(x, y), "(bvand x y)"},
		{c.Or(x, y), "(bvor x y)"},
		{c.Xor(x, y), "(bvxor x y)"},
		{c.Not(x), "(bvnot x)"},
		{c.Shl(x, y), "(bvshl x y)"},
		{c.Lshr(x, y), "(bvlshr x y)"},
		{c.Ashr(x, y), "(bvashr x y)"},
		{c.Concat(x, y), "(concat x y)"},
		{c.ZExt(x, 16), "((_ zero_extend 8) x)"},
		{c.SExt(x, 16), "((_ sign_extend 8) x)"},
		{c.Ite(p, x, y), "(ite (bvult x y) x y)"},
		{c.Eq(x, y), "(= x y)"},
		{c.Ule(x, y), "(bvule x y)"},
		{q, "(bvslt x y)"},
		{c.Sle(x, y), "(bvsle x y)"},
		{c.BAnd(p, q), "(and (bvult x y) (bvslt x y))"},
		{c.BOr(p, q), "(or (bvult x y) (bvslt x y))"},
		{c.BNot(p), "(not (bvult x y))"},
		{c.Bool(false), "false"},
		{c.BV(4, 0xa), "#xa"},
		{c.BV(12, 0xabc), "#xabc"},
	}
	for _, tc := range cases {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestDeepTermPrintsTruncated(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	t1 := x
	for i := 0; i < 100; i++ {
		t1 = c.Add(t1, c.Var("y", 8))
	}
	s := t1.String()
	if !strings.Contains(s, "...") {
		t.Error("deep term should truncate")
	}
}

func TestKindString(t *testing.T) {
	if KAdd.String() != "bvadd" || KInvalid.String() != "invalid" {
		t.Error("Kind.String broken")
	}
	if !strings.Contains(Kind(200).String(), "kind(") {
		t.Error("out-of-range kind should fall back")
	}
}

func TestContextAccessors(t *testing.T) {
	c := NewContext()
	n0 := c.NumTerms()
	x := c.Var("x", 8)
	if c.NumTerms() != n0+1 {
		t.Error("NumTerms did not grow")
	}
	if c.TermByID(x.ID()) != x {
		t.Error("TermByID lookup failed")
	}
	if c.TermByID(0) != nil || c.TermByID(99999) != nil {
		t.Error("TermByID out-of-range should be nil")
	}
	if x.NumArgs() != 0 || x.Name() != "x" {
		t.Error("leaf accessors broken")
	}
	sum := c.Add(x, c.Var("y", 8))
	if sum.NumArgs() != 2 || sum.Arg(0).Kind() != KVar {
		t.Error("arg accessors broken")
	}
}

func TestPanicGuards(t *testing.T) {
	c := NewContext()
	x := c.Var("x", 8)
	p := c.Ult(x, x) // false constant — need a non-const bool:
	p = c.Ult(x, c.Var("y", 8))

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("width 0", func() { c.BV(0, 1) })
	mustPanic("width 65", func() { c.BV(65, 1) })
	mustPanic("bool operand to Add", func() { c.Add(p, p) })
	mustPanic("bv operand to BAnd", func() { c.BAnd(x, x) })
	mustPanic("Neg of bool", func() { c.Neg(p) })
	mustPanic("Not of bool", func() { c.Not(p) })
	mustPanic("BNot of bv", func() { c.BNot(x) })
	mustPanic("extract out of range", func() { c.Extract(x, 8, 0) })
	mustPanic("extract reversed", func() { c.Extract(x, 1, 3) })
	mustPanic("zext shrink", func() { c.ZExt(x, 4) })
	mustPanic("sext shrink", func() { c.SExt(x, 4) })
	mustPanic("concat too wide", func() { c.Concat(c.Var("a", 40), c.Var("b", 40)) })
	mustPanic("ite width mismatch", func() { c.Ite(p, x, c.Var("w16", 16)) })
	mustPanic("ite non-bool cond", func() { c.Ite(x, x, x) })
	mustPanic("ConstVal on var", func() { x.ConstVal() })
	mustPanic("ExtractBounds on var", func() { x.ExtractBounds() })
}

func TestSignHelpers(t *testing.T) {
	if !SignBit(0x80, 8) || SignBit(0x40, 8) {
		t.Error("SignBit broken")
	}
	if SignExt(0x80, 8) != 0xffffffffffffff80 {
		t.Error("SignExt broken")
	}
	if SignExt(0x7f, 8) != 0x7f {
		t.Error("SignExt of positive broken")
	}
	if SignExt(0xdeadbeef, 64) != 0xdeadbeef {
		t.Error("SignExt at full width should be identity")
	}
}

func TestEvalBoolOnBVErrors(t *testing.T) {
	c := NewContext()
	if _, err := EvalBool(c.BV(8, 1), MapEnv{}); err == nil {
		t.Error("EvalBool on a bit-vector should error")
	}
}
