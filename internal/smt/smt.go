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
	_ // bvmul, removed: blank slots keep later kinds' numbers, which StructuralHash mixes in
	KNeg
	_ // bvudiv, removed
	_ // bvurem, removed

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
	_ // Boolean xor, removed
	KBNot
)

var kindNames = [...]string{
	KInvalid: "invalid",
	KConst:   "const", KVar: "var",
	KAdd: "bvadd", KSub: "bvsub", KNeg: "bvneg",
	KAnd: "bvand", KOr: "bvor", KXor: "bvxor", KNot: "bvnot",
	KShl: "bvshl", KLshr: "bvlshr", KAshr: "bvashr",
	KConcat: "concat", KExtract: "extract", KZExt: "zext", KSExt: "sext",
	KIte:  "ite",
	KTrue: "true", KFalse: "false",
	KEq: "=", KUlt: "bvult", KUle: "bvule", KSlt: "bvslt", KSle: "bvsle",
	KBAnd: "and", KBOr: "or", KBNot: "not",
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

// key is the hash-cons key of a non-variable term. Every field is an integer,
// so a probe hashes it with two multiplies and a mix, and compares it by
// value. Variables are interned by name in varsByName and never enter the
// table.
type key struct {
	val        uint64
	a0, a1, a2 uint32
	kw         uint32 // kind<<8 | width
}

// hash mixes the key's fields into a slot hash; the odd multipliers keep the
// operand IDs of one kind and width collision-free before the final mix. The
// receiver is a pointer because a value receiver makes mk copy its key
// through the stack with a store-forwarding stall, tripling the cost of a hit.
func (k *key) hash() uint64 {
	return mix64(k.val ^ (uint64(k.a0)<<32|uint64(k.a1))*hashMulA ^ (uint64(k.a2)<<32|uint64(k.kw))*hashMulB)
}

// Context owns and interns terms.
//
// The hash-cons table is open addressing over term IDs: slots is a
// power-of-two array of IDs (0 = empty) probed linearly from a key's hash,
// and keys holds every term's key by ID-1, so a probe compares keys by value
// and the table holds no pointers for the garbage collector to scan.
type Context struct {
	slots      []uint32
	keys       []key   // index = id-1; variables hold their kind and width only
	terms      []*Term // index = id-1
	tTrue      *Term
	tFalse     *Term
	vars       []*Term
	varsByName map[string]*Term

	hashMemo []uint64 // StructuralHash memo, indexed by term ID-1
}

// NewContext returns an empty term context.
func NewContext() *Context {
	c := &Context{
		slots:      make([]uint32, 1024),
		varsByName: make(map[string]*Term),
	}
	c.tTrue = c.mk0(KTrue, 0, 0)
	c.tFalse = c.mk0(KFalse, 0, 0)
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
	m := uint64(len(c.slots) - 1)
	i := k.hash() & m
	for id := c.slots[i]; id != 0; id = c.slots[i] {
		if c.keys[id-1] == k {
			return c.terms[id-1]
		}
		i = (i + 1) & m
	}
	t := c.newTerm(k, args)
	c.slots[i] = t.id
	if 4*(len(c.terms)-len(c.vars)) > 3*len(c.slots) {
		c.grow()
	}
	return t
}

// grow doubles the slot array and reinserts every keyed term.
func (c *Context) grow() {
	slots := make([]uint32, 2*len(c.slots))
	m := uint64(len(slots) - 1)
	for _, id := range c.slots {
		if id == 0 {
			continue
		}
		i := c.keys[id-1].hash() & m
		for slots[i] != 0 {
			i = (i + 1) & m
		}
		slots[i] = id
	}
	c.slots = slots
}

// newTerm appends a term under the next dense ID.
func (c *Context) newTerm(k key, args []*Term) *Term {
	t := &Term{
		id:    uint32(len(c.terms) + 1),
		kind:  Kind(k.kw >> 8),
		width: uint8(k.kw),
		val:   k.val,
		nargs: uint8(len(args)),
	}
	copy(t.args[:], args)
	c.terms = append(c.terms, t)
	c.keys = append(c.keys, k)
	return t
}

func kw(kind Kind, width int) uint32 { return uint32(kind)<<8 | uint32(uint8(width)) }

func (c *Context) mk0(kind Kind, width int, val uint64) *Term {
	return c.mk(key{kw: kw(kind, width), val: val}, nil)
}

func (c *Context) mk1(kind Kind, width int, val uint64, a *Term) *Term {
	return c.mk(key{kw: kw(kind, width), val: val, a0: a.id}, []*Term{a})
}

func (c *Context) mk2(kind Kind, width int, a, b *Term) *Term {
	return c.mk(key{kw: kw(kind, width), a0: a.id, a1: b.id}, []*Term{a, b})
}

func (c *Context) mk3(kind Kind, width int, a, b, d *Term) *Term {
	return c.mk(key{kw: kw(kind, width), a0: a.id, a1: b.id, a2: d.id}, []*Term{a, b, d})
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
