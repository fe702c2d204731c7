package riscv

import (
	"math/rand"
	"testing"

	"symriscv/internal/smt"
)

// TestSymFieldsMatchDecoder: the symbolic extractors both processor models
// build their data paths from mean what the concrete decoder means. Each is
// evaluated over a 32-bit insn variable for edge words (zero, all-ones, each
// single bit set and each single bit clear) and 10,000 seeded random words,
// and must equal the concrete immediate or bit field.
func TestSymFieldsMatchDecoder(t *testing.T) {
	ctx := smt.NewContext()
	insn := ctx.Var("insn", 32)
	cases := []struct {
		name string
		sym  *smt.Term
		want func(w uint32) uint64
	}{
		{"SymImmI", SymImmI(ctx, insn), func(w uint32) uint64 { return uint64(uint32(ImmI(w))) }},
		{"SymImmS", SymImmS(ctx, insn), func(w uint32) uint64 { return uint64(uint32(ImmS(w))) }},
		{"SymImmB", SymImmB(ctx, insn), func(w uint32) uint64 { return uint64(uint32(ImmB(w))) }},
		{"SymImmU", SymImmU(ctx, insn), func(w uint32) uint64 { return uint64(uint32(ImmU(w))) }},
		{"SymImmJ", SymImmJ(ctx, insn), func(w uint32) uint64 { return uint64(uint32(ImmJ(w))) }},
		{"SymZimm", SymZimm(ctx, insn), func(w uint32) uint64 { return uint64(w >> 15 & 0x1f) }},
		{"FieldRd", FieldRd(ctx, insn), func(w uint32) uint64 { return uint64(Decode(w).Rd) }},
		{"FieldRs1", FieldRs1(ctx, insn), func(w uint32) uint64 { return uint64(Decode(w).Rs1) }},
		{"FieldRs2", FieldRs2(ctx, insn), func(w uint32) uint64 { return uint64(Decode(w).Rs2) }},
		{"FieldCSR", FieldCSR(ctx, insn), func(w uint32) uint64 { return uint64(w >> 20) }},
		{"FieldShamt", FieldShamt(ctx, insn), func(w uint32) uint64 { return uint64(w >> 20 & 0x1f) }},
	}
	words := []uint32{0, ^uint32(0)}
	for i := range 32 {
		words = append(words, 1<<i, ^uint32(1<<i))
	}
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		words = append(words, rng.Uint32())
	}
	for _, w := range words {
		env := smt.MapEnv{"insn": uint64(w)}
		for _, c := range cases {
			got, err := smt.Eval(c.sym, env)
			if err != nil {
				t.Fatalf("%s(%#08x): %v", c.name, w, err)
			}
			if want := c.want(w); got != want {
				t.Fatalf("%s(%#08x) = %#x, concrete decoder %#x", c.name, w, got, want)
			}
		}
	}
}

// TestSymInterruptTakenMatchesSpec: the symbolic take-condition holds
// exactly when the line is asserted, mstatus.MIE is set and mie.MEIE is set,
// over every combination of the three with random other bits.
func TestSymInterruptTakenMatchesSpec(t *testing.T) {
	ctx := smt.NewContext()
	taken := SymInterruptTaken(ctx, ctx.Var("irq", 1), ctx.Var("mstatus", 32), ctx.Var("mie", 32))
	rng := rand.New(rand.NewSource(1))
	for combo := range 8 {
		line, mieBit, meie := combo&1 != 0, combo&2 != 0, combo&4 != 0
		for range 64 {
			mstatus, mie := rng.Uint32()&^MstatusMIE, rng.Uint32()&^MieMEIE
			if mieBit {
				mstatus |= MstatusMIE
			}
			if meie {
				mie |= MieMEIE
			}
			var irq uint64
			if line {
				irq = 1
			}
			got, err := smt.EvalBool(taken, smt.MapEnv{"irq": irq, "mstatus": uint64(mstatus), "mie": uint64(mie)})
			if err != nil {
				t.Fatal(err)
			}
			if want := line && mstatus&MstatusMIE != 0 && mie&MieMEIE != 0; got != want {
				t.Fatalf("SymInterruptTaken(line %v, mstatus %#08x, mie %#08x) = %v, want %v", line, mstatus, mie, got, want)
			}
		}
	}
}
