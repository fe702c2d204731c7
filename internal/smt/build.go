package smt

import "fmt"

// BV returns the bit-vector constant v of the given width. Bits of v above
// the width are masked off.
func (c *Context) BV(width int, v uint64) *Term {
	checkWidth(width)
	return c.mk0(KConst, width, v&mask(width))
}

// Var returns the named bit-vector variable, creating it on first use.
// Asking for the same name at a different width is an error.
func (c *Context) Var(name string, width int) *Term {
	checkWidth(width)
	if prev, ok := c.varsByName[name]; ok {
		if prev.Width() != width {
			buildPanic("var", "variable %q redeclared at width %d (was %d)", name, width, prev.Width())
		}
		return prev
	}
	t := c.newTerm(key{kw: kw(KVar, width)}, nil)
	t.name = name
	c.vars = append(c.vars, t)
	c.varsByName[name] = t
	return t
}

// LookupVar returns the variable named name, or nil when the context has
// not created it. Unlike Var it never interns a term.
func (c *Context) LookupVar(name string) *Term { return c.varsByName[name] }

// FreshVar returns a variable with a unique generated name carrying the
// given prefix.
func (c *Context) FreshVar(prefix string, width int) *Term {
	c.fresh++
	return c.Var(fmt.Sprintf("%s!%d", prefix, c.fresh), width)
}

// True returns the Boolean constant true.
func (c *Context) True() *Term { return c.tTrue }

// False returns the Boolean constant false.
func (c *Context) False() *Term { return c.tFalse }

// Bool returns the Boolean constant for b.
func (c *Context) Bool(b bool) *Term {
	if b {
		return c.tTrue
	}
	return c.tFalse
}

// orderComm sorts the two operands of a commutative operator by ID so that
// op(a,b) and op(b,a) intern to the same term.
func orderComm(a, b *Term) (*Term, *Term) {
	if a.id > b.id {
		return b, a
	}
	return a, b
}

// addConst splits t into (base, constant) when t is a constant-offset sum,
// enabling constant-chain folding across Add/Sub compositions.
func addConst(t *Term) (base *Term, off uint64, ok bool) {
	if t.kind != KAdd {
		return nil, 0, false
	}
	if t.args[0].IsConst() {
		return t.args[1], t.args[0].val, true
	}
	if t.args[1].IsConst() {
		return t.args[0], t.args[1].val, true
	}
	return nil, 0, false
}

// Add returns a + b (modular). Constant chains fold:
// (x + c1) + c2 == x + (c1+c2).
func (c *Context) Add(a, b *Term) *Term {
	checkSameBV("bvadd", a, b)
	w := a.Width()
	if a.IsConst() && b.IsConst() {
		return c.BV(w, a.val+b.val)
	}
	if a.IsConst() && a.val == 0 {
		return b
	}
	if b.IsConst() && b.val == 0 {
		return a
	}
	// Fold constant chains. Only one operand can be constant here.
	if a.IsConst() || b.IsConst() {
		cst, other := a, b
		if b.IsConst() {
			cst, other = b, a
		}
		if base, off, ok := addConst(other); ok {
			return c.Add(base, c.BV(w, off+cst.val))
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KAdd, w, a, b)
}

// Sub returns a - b (modular). Subtracting a constant canonicalises to an
// addition so constant chains keep folding.
func (c *Context) Sub(a, b *Term) *Term {
	checkSameBV("bvsub", a, b)
	w := a.Width()
	if a == b {
		return c.BV(w, 0)
	}
	if a.IsConst() && b.IsConst() {
		return c.BV(w, a.val-b.val)
	}
	if b.IsConst() {
		return c.Add(a, c.BV(w, -b.val))
	}
	return c.mk2(KSub, w, a, b)
}

// Mul returns a * b (modular).
func (c *Context) Mul(a, b *Term) *Term {
	checkSameBV("bvmul", a, b)
	w := a.Width()
	if a.IsConst() && b.IsConst() {
		return c.BV(w, a.val*b.val)
	}
	if a.IsConst() {
		switch a.val {
		case 0:
			return c.BV(w, 0)
		case 1:
			return b
		}
	}
	if b.IsConst() {
		switch b.val {
		case 0:
			return c.BV(w, 0)
		case 1:
			return a
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KMul, w, a, b)
}

// udivVals computes SMT-LIB bvudiv on width-w values.
func udivVals(a, b uint64, w int) uint64 {
	if b == 0 {
		return mask(w)
	}
	return a / b
}

// uremVals computes SMT-LIB bvurem on width-w values.
func uremVals(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

// UDiv returns the unsigned quotient a / b, with a/0 = all-ones (SMT-LIB).
func (c *Context) UDiv(a, b *Term) *Term {
	checkSameBV("bvudiv", a, b)
	w := a.Width()
	if a.IsConst() && b.IsConst() {
		return c.BV(w, udivVals(a.val, b.val, w))
	}
	if b.IsConst() && b.val == 1 {
		return a
	}
	return c.mk2(KUDiv, w, a, b)
}

// URem returns the unsigned remainder a % b, with a%0 = a (SMT-LIB).
func (c *Context) URem(a, b *Term) *Term {
	checkSameBV("bvurem", a, b)
	w := a.Width()
	if a.IsConst() && b.IsConst() {
		return c.BV(w, uremVals(a.val, b.val))
	}
	if b.IsConst() && b.val == 1 {
		return c.BV(w, 0)
	}
	return c.mk2(KURem, w, a, b)
}

// Neg returns -a (two's complement).
func (c *Context) Neg(a *Term) *Term {
	if a.width == 0 {
		buildPanic("bvneg", "Boolean operand where bit-vector expected")
	}
	w := a.Width()
	if a.IsConst() {
		return c.BV(w, -a.val)
	}
	if a.kind == KNeg {
		return a.args[0]
	}
	return c.mk1(KNeg, w, 0, a)
}

// And returns the bitwise AND of a and b.
func (c *Context) And(a, b *Term) *Term {
	checkSameBV("bvand", a, b)
	w := a.Width()
	if a == b {
		return a
	}
	if a.IsConst() && b.IsConst() {
		return c.BV(w, a.val&b.val)
	}
	for _, pair := range [2][2]*Term{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if x.IsConst() {
			if x.val == 0 {
				return c.BV(w, 0)
			}
			if x.val == mask(w) {
				return y
			}
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KAnd, w, a, b)
}

// Or returns the bitwise OR of a and b.
func (c *Context) Or(a, b *Term) *Term {
	checkSameBV("bvor", a, b)
	w := a.Width()
	if a == b {
		return a
	}
	if a.IsConst() && b.IsConst() {
		return c.BV(w, a.val|b.val)
	}
	for _, pair := range [2][2]*Term{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if x.IsConst() {
			if x.val == 0 {
				return y
			}
			if x.val == mask(w) {
				return c.BV(w, mask(w))
			}
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KOr, w, a, b)
}

// Xor returns the bitwise XOR of a and b.
func (c *Context) Xor(a, b *Term) *Term {
	checkSameBV("bvxor", a, b)
	w := a.Width()
	if a == b {
		return c.BV(w, 0)
	}
	if a.IsConst() && b.IsConst() {
		return c.BV(w, a.val^b.val)
	}
	for _, pair := range [2][2]*Term{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if x.IsConst() {
			if x.val == 0 {
				return y
			}
			if x.val == mask(w) {
				return c.Not(y)
			}
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KXor, w, a, b)
}

// Not returns the bitwise complement of a.
func (c *Context) Not(a *Term) *Term {
	if a.width == 0 {
		buildPanic("bvnot", "Boolean operand where bit-vector expected")
	}
	w := a.Width()
	if a.IsConst() {
		return c.BV(w, ^a.val)
	}
	if a.kind == KNot {
		return a.args[0]
	}
	return c.mk1(KNot, w, 0, a)
}

// Shl returns a << b. Shift amounts >= width yield zero.
func (c *Context) Shl(a, b *Term) *Term {
	checkSameBV("bvshl", a, b)
	w := a.Width()
	if b.IsConst() {
		if b.val == 0 {
			return a
		}
		if b.val >= uint64(w) {
			return c.BV(w, 0)
		}
		if a.IsConst() {
			return c.BV(w, a.val<<b.val)
		}
	}
	if a.IsConst() && a.val == 0 {
		return a
	}
	return c.mk2(KShl, w, a, b)
}

// Lshr returns the logical right shift a >> b. Amounts >= width yield zero.
func (c *Context) Lshr(a, b *Term) *Term {
	checkSameBV("bvlshr", a, b)
	w := a.Width()
	if b.IsConst() {
		if b.val == 0 {
			return a
		}
		if b.val >= uint64(w) {
			return c.BV(w, 0)
		}
		if a.IsConst() {
			return c.BV(w, a.val>>b.val)
		}
	}
	if a.IsConst() && a.val == 0 {
		return a
	}
	return c.mk2(KLshr, w, a, b)
}

// Ashr returns the arithmetic right shift a >> b. Amounts >= width yield the
// sign-bit replication.
func (c *Context) Ashr(a, b *Term) *Term {
	checkSameBV("bvashr", a, b)
	w := a.Width()
	if b.IsConst() {
		if b.val == 0 {
			return a
		}
		if a.IsConst() {
			sh := b.val
			if sh > uint64(w) {
				sh = uint64(w)
			}
			v := SignExt(a.val, w) >> sh
			if sh >= uint64(w) {
				if SignBit(a.val, w) {
					v = mask(w)
				} else {
					v = 0
				}
			}
			return c.BV(w, v)
		}
	}
	// Arithmetic shift fixed points: zero and all-ones replicate their sign
	// bit, so any shift amount leaves them unchanged.
	if a.IsConst() && (a.val == 0 || a.val == mask(w)) {
		return a
	}
	return c.mk2(KAshr, w, a, b)
}

// Concat returns the concatenation hi ++ lo, with hi in the upper bits.
func (c *Context) Concat(hi, lo *Term) *Term {
	if hi.width == 0 || lo.width == 0 {
		buildPanic("concat", "Boolean operand where bit-vector expected")
	}
	w := hi.Width() + lo.Width()
	if w > MaxWidth {
		buildPanic("concat", "result width %d exceeds %d", w, MaxWidth)
	}
	if hi.IsConst() && lo.IsConst() {
		return c.BV(w, hi.val<<uint(lo.Width())|lo.val)
	}
	return c.mk2(KConcat, w, hi, lo)
}

// Extract returns bits hi..lo (inclusive, 0-based) of a.
func (c *Context) Extract(a *Term, hi, lo int) *Term {
	if a.width == 0 {
		buildPanic("extract", "Boolean operand where bit-vector expected")
	}
	if lo < 0 || hi < lo || hi >= a.Width() {
		buildPanic("extract", "[%d:%d] out of range for width %d", hi, lo, a.Width())
	}
	w := hi - lo + 1
	if w == a.Width() {
		return a
	}
	if a.IsConst() {
		return c.BV(w, a.val>>uint(lo))
	}
	// extract(extract(x, h2, l2), hi, lo) = extract(x, l2+hi, l2+lo)
	if a.kind == KExtract {
		_, l2 := a.ExtractBounds()
		return c.Extract(a.args[0], l2+hi, l2+lo)
	}
	// extract of concat that falls entirely within one side.
	if a.kind == KConcat {
		lw := a.args[1].Width()
		if hi < lw {
			return c.Extract(a.args[1], hi, lo)
		}
		if lo >= lw {
			return c.Extract(a.args[0], hi-lw, lo-lw)
		}
	}
	// extract of zext that falls entirely within the original or the padding.
	if a.kind == KZExt {
		ow := a.args[0].Width()
		if hi < ow {
			return c.Extract(a.args[0], hi, lo)
		}
		if lo >= ow {
			return c.BV(w, 0)
		}
	}
	return c.mk1(KExtract, w, uint64(hi)<<8|uint64(lo), a)
}

// ZExt zero-extends a to the given width.
func (c *Context) ZExt(a *Term, width int) *Term {
	if a.width == 0 {
		buildPanic("zext", "Boolean operand where bit-vector expected")
	}
	checkWidth(width)
	if width < a.Width() {
		buildPanic("zext", "target width %d < operand width %d", width, a.Width())
	}
	if width == a.Width() {
		return a
	}
	if a.IsConst() {
		return c.BV(width, a.val)
	}
	if a.kind == KZExt {
		return c.ZExt(a.args[0], width)
	}
	return c.mk1(KZExt, width, 0, a)
}

// SExt sign-extends a to the given width.
func (c *Context) SExt(a *Term, width int) *Term {
	if a.width == 0 {
		buildPanic("sext", "Boolean operand where bit-vector expected")
	}
	checkWidth(width)
	if width < a.Width() {
		buildPanic("sext", "target width %d < operand width %d", width, a.Width())
	}
	if width == a.Width() {
		return a
	}
	if a.IsConst() {
		return c.BV(width, SignExt(a.val, a.Width()))
	}
	if a.kind == KSExt {
		return c.SExt(a.args[0], width)
	}
	return c.mk1(KSExt, width, 0, a)
}

// Ite returns if cond then a else b, for bit-vector or Boolean a/b.
func (c *Context) Ite(cond, a, b *Term) *Term {
	checkBool("ite", cond)
	if a.width != b.width {
		buildPanic("ite", "branch width mismatch %d vs %d", a.width, b.width)
	}
	if v, ok := cond.IsBoolConst(); ok {
		if v {
			return a
		}
		return b
	}
	if a == b {
		return a
	}
	if a.width == 0 {
		// Boolean ite: fold the common encodings.
		av, aok := a.IsBoolConst()
		bv, bok := b.IsBoolConst()
		switch {
		case aok && bok: // a != b here since a != b term-wise
			if av && !bv {
				return cond
			}
			return c.BNot(cond)
		case aok && av:
			return c.BOr(cond, b)
		case aok && !av:
			return c.BAnd(c.BNot(cond), b)
		case bok && bv:
			return c.BOr(c.BNot(cond), a)
		case bok && !bv:
			return c.BAnd(cond, a)
		}
	}
	return c.mk3(KIte, int(a.width), cond, a, b)
}

// Eq returns the Boolean a == b over same-width bit-vectors. Constant-offset
// sums shift their constant onto the other side ((x+c1) == c2 becomes
// x == c2-c1), a pattern arising constantly in PC and address chains.
func (c *Context) Eq(a, b *Term) *Term {
	checkSameBV("=", a, b)
	if a == b {
		return c.tTrue
	}
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.val == b.val)
	}
	if a.IsConst() || b.IsConst() {
		cst, other := a, b
		if b.IsConst() {
			cst, other = b, a
		}
		if base, off, ok := addConst(other); ok {
			return c.Eq(base, c.BV(other.Width(), cst.val-off))
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KEq, 0, a, b)
}

// Ne returns the Boolean a != b.
func (c *Context) Ne(a, b *Term) *Term { return c.BNot(c.Eq(a, b)) }

// Ult returns the Boolean unsigned a < b.
func (c *Context) Ult(a, b *Term) *Term {
	checkSameBV("bvult", a, b)
	if a == b {
		return c.tFalse
	}
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.val < b.val)
	}
	if b.IsConst() && b.val == 0 {
		return c.tFalse
	}
	if a.IsConst() && a.val == mask(a.Width()) {
		return c.tFalse
	}
	return c.mk2(KUlt, 0, a, b)
}

// Ule returns the Boolean unsigned a <= b.
func (c *Context) Ule(a, b *Term) *Term {
	checkSameBV("bvule", a, b)
	if a == b {
		return c.tTrue
	}
	if a.IsConst() && b.IsConst() {
		return c.Bool(a.val <= b.val)
	}
	if a.IsConst() && a.val == 0 {
		return c.tTrue
	}
	if b.IsConst() && b.val == mask(b.Width()) {
		return c.tTrue
	}
	return c.mk2(KUle, 0, a, b)
}

// Ugt returns the Boolean unsigned a > b.
func (c *Context) Ugt(a, b *Term) *Term { return c.Ult(b, a) }

// Uge returns the Boolean unsigned a >= b.
func (c *Context) Uge(a, b *Term) *Term { return c.Ule(b, a) }

// Slt returns the Boolean signed a < b.
func (c *Context) Slt(a, b *Term) *Term {
	checkSameBV("bvslt", a, b)
	if a == b {
		return c.tFalse
	}
	if a.IsConst() && b.IsConst() {
		w := a.Width()
		return c.Bool(int64(SignExt(a.val, w)) < int64(SignExt(b.val, w)))
	}
	return c.mk2(KSlt, 0, a, b)
}

// Sle returns the Boolean signed a <= b.
func (c *Context) Sle(a, b *Term) *Term {
	checkSameBV("bvsle", a, b)
	if a == b {
		return c.tTrue
	}
	if a.IsConst() && b.IsConst() {
		w := a.Width()
		return c.Bool(int64(SignExt(a.val, w)) <= int64(SignExt(b.val, w)))
	}
	return c.mk2(KSle, 0, a, b)
}

// Sge returns the Boolean signed a >= b.
func (c *Context) Sge(a, b *Term) *Term { return c.Sle(b, a) }

// BAnd returns the Boolean conjunction of a and b.
func (c *Context) BAnd(a, b *Term) *Term {
	checkBool("and", a)
	checkBool("and", b)
	if a == b {
		return a
	}
	for _, pair := range [2][2]*Term{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if v, ok := x.IsBoolConst(); ok {
			if v {
				return y
			}
			return c.tFalse
		}
	}
	if a.kind == KBNot && a.args[0] == b || b.kind == KBNot && b.args[0] == a {
		return c.tFalse
	}
	a, b = orderComm(a, b)
	return c.mk2(KBAnd, 0, a, b)
}

// BOr returns the Boolean disjunction of a and b.
func (c *Context) BOr(a, b *Term) *Term {
	checkBool("or", a)
	checkBool("or", b)
	if a == b {
		return a
	}
	for _, pair := range [2][2]*Term{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if v, ok := x.IsBoolConst(); ok {
			if v {
				return c.tTrue
			}
			return y
		}
	}
	if a.kind == KBNot && a.args[0] == b || b.kind == KBNot && b.args[0] == a {
		return c.tTrue
	}
	a, b = orderComm(a, b)
	return c.mk2(KBOr, 0, a, b)
}

// BXor returns the Boolean exclusive-or of a and b.
func (c *Context) BXor(a, b *Term) *Term {
	checkBool("xor", a)
	checkBool("xor", b)
	if a == b {
		return c.tFalse
	}
	for _, pair := range [2][2]*Term{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		if v, ok := x.IsBoolConst(); ok {
			if v {
				return c.BNot(y)
			}
			return y
		}
	}
	a, b = orderComm(a, b)
	return c.mk2(KBXor, 0, a, b)
}

// BNot returns the Boolean negation of a.
func (c *Context) BNot(a *Term) *Term {
	checkBool("not", a)
	if v, ok := a.IsBoolConst(); ok {
		return c.Bool(!v)
	}
	if a.kind == KBNot {
		return a.args[0]
	}
	return c.mk1(KBNot, 0, 0, a)
}

// Implies returns a -> b.
func (c *Context) Implies(a, b *Term) *Term { return c.BOr(c.BNot(a), b) }

// Iff returns a <-> b.
func (c *Context) Iff(a, b *Term) *Term { return c.BNot(c.BXor(a, b)) }

// BoolToBV returns a width-1 bit-vector that is 1 when cond holds.
func (c *Context) BoolToBV(cond *Term) *Term {
	return c.Ite(cond, c.BV(1, 1), c.BV(1, 0))
}
