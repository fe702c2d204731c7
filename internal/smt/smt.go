// Package smt implements a hash-consed term language for the quantifier-free
// theory of fixed-width bit-vectors (QF_BV) plus Booleans.
//
// Terms are immutable and interned per Context: structurally equal terms are
// pointer-equal, so syntactic equality checks are O(1) pointer compares and
// downstream consumers (the bit-blaster, the symbolic execution engine) can
// cache per-term results by identity.
//
// A Context is not safe for concurrent use; each symbolic exploration owns
// one Context.
package smt

import "fmt"

// Kind identifies the operator of a Term.
type Kind uint8

// Term kinds. Bit-vector terms have width >= 1; Boolean terms have width 0.
const (
	KInvalid Kind = iota

	// Leaves.
	KConst // bit-vector constant (Val holds the value)
	KVar   // named bit-vector variable

	// Bit-vector arithmetic.
	KAdd
	KSub
	KMul
	KNeg
	KUDiv // SMT-LIB semantics: x / 0 = all-ones
	KURem // SMT-LIB semantics: x % 0 = x

	// Bit-vector bitwise.
	KAnd
	KOr
	KXor
	KNot

	// Shifts. The shift amount is the second argument, same width.
	KShl
	KLshr
	KAshr

	// Structural.
	KConcat  // args[0] is the high part, args[1] the low part
	KExtract // bits hi..lo of args[0]; Val packs hi<<8|lo
	KZExt    // zero-extend args[0] to width
	KSExt    // sign-extend args[0] to width
	KIte     // args[0] Bool condition, args[1]/args[2] same-width results

	// Boolean leaves.
	KTrue
	KFalse

	// Atoms (bit-vector relations producing Bool).
	KEq
	KUlt
	KUle
	KSlt
	KSle

	// Boolean connectives.
	KBAnd
	KBOr
	KBXor
	KBNot
)

var kindNames = [...]string{
	KInvalid: "invalid",
	KConst:   "const", KVar: "var",
	KAdd: "bvadd", KSub: "bvsub", KMul: "bvmul", KNeg: "bvneg",
	KUDiv: "bvudiv", KURem: "bvurem",
	KAnd: "bvand", KOr: "bvor", KXor: "bvxor", KNot: "bvnot",
	KShl: "bvshl", KLshr: "bvlshr", KAshr: "bvashr",
	KConcat: "concat", KExtract: "extract", KZExt: "zext", KSExt: "sext",
	KIte:  "ite",
	KTrue: "true", KFalse: "false",
	KEq: "=", KUlt: "bvult", KUle: "bvule", KSlt: "bvslt", KSle: "bvsle",
	KBAnd: "and", KBOr: "or", KBXor: "xor", KBNot: "not",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MaxWidth is the largest supported bit-vector width.
const MaxWidth = 64

// Term is an immutable, interned bit-vector or Boolean expression.
type Term struct {
	id    uint32
	kind  Kind
	width uint8 // 0 for Bool terms
	val   uint64
	name  string
	args  [3]*Term
	nargs uint8
}

// ID returns the Context-unique identifier of the term. IDs are dense and
// start at 1, which makes them convenient slice indices for caches.
func (t *Term) ID() uint32 { return t.id }

// Kind returns the operator kind.
func (t *Term) Kind() Kind { return t.kind }

// Width returns the bit-vector width, or 0 for a Boolean term.
func (t *Term) Width() int { return int(t.width) }

// IsBool reports whether the term has Boolean sort.
func (t *Term) IsBool() bool { return t.width == 0 }

// NumArgs returns the number of operand terms.
func (t *Term) NumArgs() int { return int(t.nargs) }

// Arg returns the i-th operand term.
func (t *Term) Arg(i int) *Term { return t.args[i] }

// Name returns the variable name; it is empty for non-variable terms.
func (t *Term) Name() string { return t.name }

// IsConst reports whether the term is a bit-vector constant.
func (t *Term) IsConst() bool { return t.kind == KConst }

// ConstVal returns the value of a KConst term. It panics on other kinds.
func (t *Term) ConstVal() uint64 {
	if t.kind != KConst {
		panic("smt: ConstVal on non-constant term")
	}
	return t.val
}

// IsBoolConst reports whether the term is the constant true or false,
// returning its value in the second result.
func (t *Term) IsBoolConst() (val, ok bool) {
	switch t.kind {
	case KTrue:
		return true, true
	case KFalse:
		return false, true
	}
	return false, false
}

// ExtractBounds returns the hi and lo bit positions of a KExtract term.
func (t *Term) ExtractBounds() (hi, lo int) {
	if t.kind != KExtract {
		panic("smt: ExtractBounds on non-extract term")
	}
	return int(t.val >> 8), int(t.val & 0xff)
}

type key struct {
	kind       Kind
	width      uint8
	val        uint64
	name       string
	a0, a1, a2 uint32
}

// Context owns and interns terms.
type Context struct {
	table      map[key]*Term
	terms      []*Term // index = id-1
	tTrue      *Term
	tFalse     *Term
	fresh      uint64 // counter for FreshVar names
	vars       []*Term
	varsByName map[string]*Term

	hashMemo []uint64 // StructuralHash memo, indexed by term ID-1
}

// NewContext returns an empty term context.
func NewContext() *Context {
	c := &Context{
		table:      make(map[key]*Term, 1024),
		varsByName: make(map[string]*Term),
	}
	c.tTrue = c.mk(key{kind: KTrue}, nil)
	c.tFalse = c.mk(key{kind: KFalse}, nil)
	return c
}

// NumTerms returns the number of distinct terms interned so far.
func (c *Context) NumTerms() int { return len(c.terms) }

// TermByID returns the term with the given ID (1-based), or nil.
func (c *Context) TermByID(id uint32) *Term {
	if id == 0 || int(id) > len(c.terms) {
		return nil
	}
	return c.terms[id-1]
}

// Vars returns all variable terms created in this context, in creation order.
func (c *Context) Vars() []*Term { return c.vars }

func (c *Context) mk(k key, args []*Term) *Term {
	if t, ok := c.table[k]; ok {
		return t
	}
	t := &Term{
		id:    uint32(len(c.terms) + 1),
		kind:  k.kind,
		width: k.width,
		val:   k.val,
		name:  k.name,
		nargs: uint8(len(args)),
	}
	copy(t.args[:], args)
	c.table[k] = t
	c.terms = append(c.terms, t)
	if k.kind == KVar {
		c.vars = append(c.vars, t)
		c.varsByName[k.name] = t
	}
	return t
}

func (c *Context) mk0(kind Kind, width int, val uint64) *Term {
	return c.mk(key{kind: kind, width: uint8(width), val: val}, nil)
}

func (c *Context) mk1(kind Kind, width int, val uint64, a *Term) *Term {
	return c.mk(key{kind: kind, width: uint8(width), val: val, a0: a.id}, []*Term{a})
}

func (c *Context) mk2(kind Kind, width int, a, b *Term) *Term {
	return c.mk(key{kind: kind, width: uint8(width), a0: a.id, a1: b.id}, []*Term{a, b})
}

func (c *Context) mk3(kind Kind, width int, a, b, d *Term) *Term {
	return c.mk(key{kind: kind, width: uint8(width), a0: a.id, a1: b.id, a2: d.id}, []*Term{a, b, d})
}

// mask returns a bitmask with the low w bits set.
func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// SignBit reports whether the sign bit of v is set when interpreted at width w.
func SignBit(v uint64, w int) bool { return (v>>(uint(w)-1))&1 == 1 }

// SignExt sign-extends the width-w value v to 64 bits.
func SignExt(v uint64, w int) uint64 {
	if w >= 64 || !SignBit(v, w) {
		return v
	}
	return v | ^mask(w)
}

// BuildError describes a term-construction discipline violation: a width out
// of range, a width mismatch between operands, or a sort confusion (Boolean
// where bit-vector expected, or vice versa). Builders panic with *BuildError
// so that analysis tools driving untrusted transition functions — dutlint in
// particular — can recover at the cycle boundary and convert the violation
// into a reported finding instead of crashing, while ordinary callers still
// fail loudly on programmer error.
type BuildError struct {
	Op  string // builder operation, e.g. "bvadd", "extract"
	Msg string // human-readable description of the violation
}

func (e *BuildError) Error() string {
	if e.Op == "" {
		return "smt: " + e.Msg
	}
	return "smt: " + e.Op + ": " + e.Msg
}

func buildPanic(op, format string, args ...interface{}) {
	panic(&BuildError{Op: op, Msg: fmt.Sprintf(format, args...)})
}

func checkWidth(w int) {
	if w < 1 || w > MaxWidth {
		buildPanic("", "invalid bit-vector width %d", w)
	}
}

func checkSameBV(op string, a, b *Term) {
	if a.width == 0 || b.width == 0 {
		buildPanic(op, "Boolean operand where bit-vector expected")
	}
	if a.width != b.width {
		buildPanic(op, "width mismatch %d vs %d", a.width, b.width)
	}
}

func checkBool(op string, a *Term) {
	if a.width != 0 {
		buildPanic(op, "bit-vector operand where Boolean expected")
	}
}
