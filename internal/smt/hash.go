package smt

// Structural hashing gives every term a 64-bit fingerprint that depends only
// on the term's structure — kinds, widths, constants, variable names and
// operand order — not on the Context that interned it or on term-creation
// order. Two Contexts building the same expression therefore produce the
// same hash, which makes the hashes usable as cross-worker cache keys
// (internal/querycache fingerprints constraint sets with them).

// splitmix64 finalizer constants.
const (
	hashSeed uint64 = 0x9e3779b97f4a7c15
	hashMulA uint64 = 0xbf58476d1ce4e5b9
	hashMulB uint64 = 0x94d049bb133111eb
)

// mix64 is the splitmix64 finalizer: a cheap bijective 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= hashMulA
	x ^= x >> 27
	x *= hashMulB
	x ^= x >> 31
	return x
}

// hashCombine folds v into the running hash h, order-sensitively.
func hashCombine(h, v uint64) uint64 {
	return mix64(h ^ (v + hashSeed + h<<6 + h>>2))
}

// StructuralHash returns the context-independent fingerprint of t. Results
// are memoized per Context in a dense slice indexed by term ID, so amortized
// cost per term is O(1) after the first computation. The hash is never 0.
func (c *Context) StructuralHash(t *Term) uint64 {
	if int(t.id) > len(c.hashMemo) {
		// append grows the capacity geometrically, so interleaving term
		// creation with hashing copies the memo O(log n) times, not O(n).
		c.hashMemo = append(c.hashMemo, make([]uint64, len(c.terms)-len(c.hashMemo))...)
	}
	if h := c.hashMemo[t.id-1]; h != 0 {
		return h
	}
	h := hashCombine(hashSeed, uint64(t.kind))
	h = hashCombine(h, uint64(t.width))
	h = hashCombine(h, t.val)
	for i := 0; i < len(t.name); i++ {
		h = hashCombine(h, uint64(t.name[i]))
	}
	for i := 0; i < int(t.nargs); i++ {
		h = hashCombine(h, c.StructuralHash(t.args[i]))
	}
	if h == 0 {
		h = 1
	}
	c.hashMemo[t.id-1] = h
	return h
}
