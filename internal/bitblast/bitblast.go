// Package bitblast lowers smt terms to CNF over a sat.Solver (Tseitin
// encoding). Each bit-vector term maps to a little-endian vector of SAT
// literals; each Boolean term maps to one literal. Every AND, XOR and MUX is
// created with sat.AddGate, so a solve assigns only the gates its query
// depends on and the model computes the rest. Encodings are cached per
// term identity, and gate outputs are cached per input-literal pair, so a
// Blaster can serve many incremental queries against one growing SAT
// instance — the mechanism the symbolic execution engine relies on for
// cheap per-path feasibility checks.
package bitblast

import (
	"fmt"

	"symriscv/internal/sat"
	"symriscv/internal/smt"
)

// Blaster encodes terms from one smt.Context into one sat.Solver.
type Blaster struct {
	ctx *smt.Context
	sat *sat.Solver

	// Encodings by term ID-1, grown with the context (nil or noLit: none yet).
	bvBits  [][]sat.Lit // bits, LSB first
	boolLit []sat.Lit

	gates map[gateKey]sat.Lit

	lTrue  sat.Lit
	lFalse sat.Lit
}

// gateKey identifies a gate by its op and inputs; a MUX s ? t : f keys its
// inputs (s, t, f) as (c, a, b).
type gateKey struct {
	op      sat.GateOp
	a, b, c sat.Lit
}

const noLit sat.Lit = -1 // boolLit slot of a term not yet encoded

// New returns a Blaster targeting the given SAT solver. The solver gains one
// reserved variable that is constrained to true.
func New(ctx *smt.Context, s *sat.Solver) *Blaster {
	b := &Blaster{
		ctx:   ctx,
		sat:   s,
		gates: make(map[gateKey]sat.Lit),
	}
	v := s.NewVar()
	b.lTrue = sat.MkLit(v, false)
	b.lFalse = b.lTrue.Neg()
	s.AddClause(b.lTrue)
	return b
}

func (b *Blaster) constLit(v bool) sat.Lit {
	if v {
		return b.lTrue
	}
	return b.lFalse
}

func (b *Blaster) freshLit() sat.Lit { return sat.MkLit(b.sat.NewVar(), false) }

// mkAnd returns a literal equivalent to a AND b.
func (b *Blaster) mkAnd(a, c sat.Lit) sat.Lit {
	if a == b.lFalse || c == b.lFalse {
		return b.lFalse
	}
	if a == b.lTrue {
		return c
	}
	if c == b.lTrue {
		return a
	}
	if a == c {
		return a
	}
	if a == c.Neg() {
		return b.lFalse
	}
	if a > c {
		a, c = c, a
	}
	k := gateKey{op: sat.GateAnd, a: a, b: c}
	if o, ok := b.gates[k]; ok {
		return o
	}
	o := b.sat.AddGate(sat.GateAnd, a, c)
	b.gates[k] = o
	return o
}

func (b *Blaster) mkOr(a, c sat.Lit) sat.Lit {
	return b.mkAnd(a.Neg(), c.Neg()).Neg()
}

// mkXor returns a literal equivalent to a XOR b.
func (b *Blaster) mkXor(a, c sat.Lit) sat.Lit {
	if a == b.lFalse {
		return c
	}
	if c == b.lFalse {
		return a
	}
	if a == b.lTrue {
		return c.Neg()
	}
	if c == b.lTrue {
		return a.Neg()
	}
	if a == c {
		return b.lFalse
	}
	if a == c.Neg() {
		return b.lTrue
	}
	// Normalise polarity so xor(a,b), xor(~a,b) share structure: fold the
	// output negation out of negated inputs.
	neg := false
	if a.Sign() {
		a = a.Neg()
		neg = !neg
	}
	if c.Sign() {
		c = c.Neg()
		neg = !neg
	}
	if a > c {
		a, c = c, a
	}
	k := gateKey{op: sat.GateXor, a: a, b: c}
	o, ok := b.gates[k]
	if !ok {
		o = b.sat.AddGate(sat.GateXor, a, c)
		b.gates[k] = o
	}
	if neg {
		return o.Neg()
	}
	return o
}

// mkMux returns a literal equivalent to (s ? t : f).
func (b *Blaster) mkMux(s, t, f sat.Lit) sat.Lit {
	if s == b.lTrue {
		return t
	}
	if s == b.lFalse {
		return f
	}
	if t == f {
		return t
	}
	if t == f.Neg() {
		return b.mkXor(s, f)
	}
	if t == b.lTrue {
		return b.mkOr(s, f)
	}
	if t == b.lFalse {
		return b.mkAnd(s.Neg(), f)
	}
	if f == b.lTrue {
		return b.mkOr(s.Neg(), t)
	}
	if f == b.lFalse {
		return b.mkAnd(s, t)
	}
	k := gateKey{op: sat.GateMux, c: s, a: t, b: f}
	if o, ok := b.gates[k]; ok {
		return o
	}
	o := b.sat.AddGate(sat.GateMux, s, t, f)
	b.gates[k] = o
	return o
}

// fullAdder returns (sum, carryOut) of a + b + cin.
func (b *Blaster) fullAdder(a, c, cin sat.Lit) (sum, cout sat.Lit) {
	axb := b.mkXor(a, c)
	sum = b.mkXor(axb, cin)
	cout = b.mkOr(b.mkAnd(a, c), b.mkAnd(axb, cin))
	return sum, cout
}

// Bits returns the literal vector (LSB first) encoding the bit-vector term t,
// encoding it (and its cone) on first use.
func (b *Blaster) Bits(t *smt.Term) []sat.Lit {
	if t.IsBool() {
		panic("bitblast: Bits on Boolean term")
	}
	b.grow()
	if bits := b.bvBits[t.ID()-1]; bits != nil {
		return bits
	}
	bits := b.encodeBV(t)
	if len(bits) != t.Width() {
		panic(fmt.Sprintf("bitblast: internal: %v encoded to %d bits, want %d", t.Kind(), len(bits), t.Width()))
	}
	b.bvBits[t.ID()-1] = bits
	return bits
}

// LitFor returns the literal encoding the Boolean term t.
func (b *Blaster) LitFor(t *smt.Term) sat.Lit {
	if !t.IsBool() {
		panic("bitblast: LitFor on bit-vector term")
	}
	b.grow()
	if l := b.boolLit[t.ID()-1]; l != noLit {
		return l
	}
	l := b.encodeBool(t)
	b.boolLit[t.ID()-1] = l //symlint:allow clauseimmut -- the blaster's own table, never handed out
	return l
}

// grow extends both encoding tables over every term interned so far.
func (b *Blaster) grow() {
	for len(b.boolLit) < b.ctx.NumTerms() {
		b.boolLit = append(b.boolLit, noLit)
		b.bvBits = append(b.bvBits, nil)
	}
}

func (b *Blaster) encodeBV(t *smt.Term) []sat.Lit {
	w := t.Width()
	switch t.Kind() {
	case smt.KConst:
		v := t.ConstVal()
		bits := make([]sat.Lit, w)
		for i := range bits {
			bits[i] = b.constLit(v>>uint(i)&1 == 1)
		}
		return bits

	case smt.KVar:
		bits := make([]sat.Lit, w)
		for i := range bits {
			bits[i] = b.freshLit()
		}
		return bits

	case smt.KAdd:
		a := b.Bits(t.Arg(0))
		c := b.Bits(t.Arg(1))
		return b.adder(a, c, b.lFalse)

	case smt.KSub:
		a := b.Bits(t.Arg(0))
		c := negBits(b.Bits(t.Arg(1)))
		return b.adder(a, c, b.lTrue)

	case smt.KNeg:
		a := b.Bits(t.Arg(0))
		zero := make([]sat.Lit, w)
		for i := range zero {
			zero[i] = b.lFalse
		}
		return b.adder(zero, negBits(a), b.lTrue)

	case smt.KAnd, smt.KOr, smt.KXor:
		a := b.Bits(t.Arg(0))
		c := b.Bits(t.Arg(1))
		bits := make([]sat.Lit, w)
		for i := range bits {
			switch t.Kind() {
			case smt.KAnd:
				bits[i] = b.mkAnd(a[i], c[i])
			case smt.KOr:
				bits[i] = b.mkOr(a[i], c[i])
			default:
				bits[i] = b.mkXor(a[i], c[i])
			}
		}
		return bits

	case smt.KNot:
		return negBits(b.Bits(t.Arg(0)))

	case smt.KShl:
		return b.shifter(t.Arg(0), t.Arg(1), shiftLeft)
	case smt.KLshr:
		return b.shifter(t.Arg(0), t.Arg(1), shiftRightLogical)
	case smt.KAshr:
		return b.shifter(t.Arg(0), t.Arg(1), shiftRightArith)

	case smt.KConcat:
		hi := b.Bits(t.Arg(0))
		lo := b.Bits(t.Arg(1))
		bits := make([]sat.Lit, 0, w)
		bits = append(bits, lo...)
		bits = append(bits, hi...)
		return bits

	case smt.KExtract:
		hi, lo := t.ExtractBounds()
		src := b.Bits(t.Arg(0))
		bits := make([]sat.Lit, hi-lo+1)
		copy(bits, src[lo:hi+1])
		return bits

	case smt.KZExt:
		src := b.Bits(t.Arg(0))
		bits := make([]sat.Lit, w)
		copy(bits, src)
		for i := len(src); i < w; i++ {
			bits[i] = b.lFalse
		}
		return bits

	case smt.KSExt:
		src := b.Bits(t.Arg(0))
		bits := make([]sat.Lit, w)
		copy(bits, src)
		msb := src[len(src)-1]
		for i := len(src); i < w; i++ {
			bits[i] = msb
		}
		return bits

	case smt.KIte:
		s := b.LitFor(t.Arg(0))
		a := b.Bits(t.Arg(1))
		c := b.Bits(t.Arg(2))
		bits := make([]sat.Lit, w)
		for i := range bits {
			bits[i] = b.mkMux(s, a[i], c[i])
		}
		return bits
	}
	panic(fmt.Sprintf("bitblast: unsupported bit-vector kind %v", t.Kind()))
}

func negBits(a []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	for i, l := range a {
		out[i] = l.Neg()
	}
	return out
}

// adder returns a + c + cin, discarding the final carry (modular semantics).
func (b *Blaster) adder(a, c []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	carry := cin
	for i := range a {
		out[i], carry = b.fullAdder(a[i], c[i], carry)
	}
	return out
}

type shiftKind uint8

const (
	shiftLeft shiftKind = iota
	shiftRightLogical
	shiftRightArith
)

// shifter implements a barrel shifter controlled by the (possibly symbolic)
// amount operand, with the SMT-LIB semantics for out-of-range amounts.
func (b *Blaster) shifter(val, amount *smt.Term, kind shiftKind) []sat.Lit {
	w := val.Width()
	bits := b.Bits(val)
	amt := b.Bits(amount)

	fill := b.lFalse
	if kind == shiftRightArith {
		fill = bits[w-1]
	}

	cur := make([]sat.Lit, w)
	copy(cur, bits)
	for k := 0; (1 << uint(k)) < w; k++ {
		sh := 1 << uint(k)
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch kind {
			case shiftLeft:
				if i >= sh {
					shifted = cur[i-sh]
				} else {
					shifted = b.lFalse
				}
			default:
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = fill
				}
			}
			next[i] = b.mkMux(amt[k], shifted, cur[i])
		}
		cur = next
	}

	// If any amount bit at or above log2(w) is set, the whole value is
	// shifted out.
	overflow := b.lFalse
	for k := 0; k < len(amt); k++ {
		if (1 << uint(k)) >= w {
			overflow = b.mkOr(overflow, amt[k])
		}
	}
	if overflow != b.lFalse {
		for i := 0; i < w; i++ {
			cur[i] = b.mkMux(overflow, fill, cur[i])
		}
	}
	return cur
}

func (b *Blaster) encodeBool(t *smt.Term) sat.Lit {
	switch t.Kind() {
	case smt.KTrue:
		return b.lTrue
	case smt.KFalse:
		return b.lFalse

	case smt.KEq:
		a := b.Bits(t.Arg(0))
		c := b.Bits(t.Arg(1))
		acc := b.lTrue
		for i := range a {
			acc = b.mkAnd(acc, b.mkXor(a[i], c[i]).Neg())
		}
		return acc

	case smt.KUlt:
		return b.ultLit(b.Bits(t.Arg(0)), b.Bits(t.Arg(1)))
	case smt.KUle:
		return b.ultLit(b.Bits(t.Arg(1)), b.Bits(t.Arg(0))).Neg()
	case smt.KSlt:
		a := b.Bits(t.Arg(0))
		c := b.Bits(t.Arg(1))
		return b.ultLit(flipMSB(a), flipMSB(c))
	case smt.KSle:
		a := b.Bits(t.Arg(0))
		c := b.Bits(t.Arg(1))
		return b.ultLit(flipMSB(c), flipMSB(a)).Neg()

	case smt.KBAnd:
		return b.mkAnd(b.LitFor(t.Arg(0)), b.LitFor(t.Arg(1)))
	case smt.KBOr:
		return b.mkOr(b.LitFor(t.Arg(0)), b.LitFor(t.Arg(1)))
	case smt.KBNot:
		return b.LitFor(t.Arg(0)).Neg()
	case smt.KIte:
		return b.mkMux(b.LitFor(t.Arg(0)), b.LitFor(t.Arg(1)), b.LitFor(t.Arg(2)))
	}
	panic(fmt.Sprintf("bitblast: unsupported Boolean kind %v", t.Kind()))
}

// ultLit builds the unsigned a < b comparator via a borrow chain.
func (b *Blaster) ultLit(a, c []sat.Lit) sat.Lit {
	lt := b.lFalse
	for i := 0; i < len(a); i++ {
		eq := b.mkXor(a[i], c[i]).Neg()
		gtBit := b.mkAnd(a[i].Neg(), c[i])
		lt = b.mkOr(gtBit, b.mkAnd(eq, lt))
	}
	return lt
}

func flipMSB(a []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	copy(out, a)
	out[len(a)-1] = out[len(a)-1].Neg()
	return out
}

// ModelValue reads the value of t from the SAT model after a Sat answer.
// The term must already have been encoded (directly or as part of a larger
// encoded term).
func (b *Blaster) ModelValue(t *smt.Term) (uint64, bool) {
	b.grow()
	if t.IsBool() {
		l := b.boolLit[t.ID()-1]
		if l == noLit {
			return 0, false
		}
		if b.sat.LitValue(l) {
			return 1, true
		}
		return 0, true
	}
	bits := b.bvBits[t.ID()-1]
	if bits == nil {
		return 0, false
	}
	var v uint64
	for i, l := range bits {
		if b.sat.LitValue(l) {
			v |= 1 << uint(i)
		}
	}
	return v, true
}
