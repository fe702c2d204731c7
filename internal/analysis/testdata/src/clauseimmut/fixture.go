// Package fixture exercises the clauseimmut analyzer: []sat.Lit slices
// received across a package boundary alias the bit-blaster's caches and
// must not be mutated in place.
package fixture

import (
	"slices"
	"sort"

	"symriscv/internal/sat"
)

func writeShared(shared []sat.Lit) {
	shared[0] = shared[1] // want `write into shared \[\]sat\.Lit`
}

func copyIntoShared(dst, src []sat.Lit) {
	copy(dst, src) // want `copy into shared \[\]sat\.Lit`
}

func appendShared(shared []sat.Lit, l sat.Lit) []sat.Lit {
	return append(shared, l) // want `append to shared \[\]sat\.Lit`
}

func sortShared(shared []sat.Lit) {
	sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] }) // want `in-place sort\.Slice on shared \[\]sat\.Lit`
	slices.Sort(shared)                                                      // want `in-place slices\.Sort on shared \[\]sat\.Lit`
}

// readShared only reads a foreign clause through the slices package: allowed.
func readShared(shared, other []sat.Lit, l sat.Lit) bool {
	return slices.Contains(shared, l) && slices.Index(shared, l) >= 0 && slices.Equal(shared, other)
}

// ownedWrite mutates a slice this function allocated itself: allowed.
func ownedWrite(l sat.Lit) sat.Lit {
	buf := make([]sat.Lit, 2)
	buf[0] = l
	buf[1] = buf[0]
	return buf[1]
}

// cloneThenMutate is the sanctioned pattern for editing a foreign clause.
func cloneThenMutate(shared []sat.Lit) []sat.Lit {
	own := append([]sat.Lit(nil), shared...)
	own[0] = own[0] ^ 1
	return own
}

// growSelf uses the self-append idiom x = append(x, ...): allowed, append
// reallocates before writing when capacity is exhausted and the result
// replaces the only local alias.
func growSelf(shared []sat.Lit, l sat.Lit) []sat.Lit {
	shared = append(shared, l)
	return shared
}
