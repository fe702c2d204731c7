package querycache

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// goldenKey is the hex fingerprint of goldenSet. It pins the key byte
// format that persistent stores are written in: a change here silently
// invalidates every SchemaVersion 2 store, so it must come with a schema
// bump.
const goldenKey = "241913a672336b886010d7408ff8377a6a2f9ef63636b60d"

// goldenSet builds the fixed constraint set of TestFingerprintGolden.
func goldenSet(ctx *smt.Context) []*smt.Term {
	v := ctx.Var("v", 32)
	w := ctx.Var("w", 32)
	return []*smt.Term{
		ctx.Eq(ctx.Extract(v, 6, 0), ctx.BV(7, 0x13)),
		ctx.Ult(w, v),
		ctx.Ne(ctx.Add(v, w), ctx.BV(32, 0x80000000)),
	}
}

// TestFingerprintGolden: the fingerprint of a fixed set, built in two
// contexts with different term IDs and listed in two orders, is KeyOf of its
// sorted structural hashes and equals a committed constant.
func TestFingerprintGolden(t *testing.T) {
	l1, ctx1, _ := newLocal(t, nil)
	l2, ctx2, _ := newLocal(t, nil)
	ctx2.Var("unrelated", 16) // shift ctx2's term IDs
	set1 := goldenSet(ctx1)
	set2 := goldenSet(ctx2)
	slices.Reverse(set2)

	var hs []uint64
	for _, term := range set1 {
		hs = append(hs, ctx1.StructuralHash(term))
	}
	slices.Sort(hs)
	want := KeyOf(hs)
	for i, got := range []string{fp(l1, set1...), fp(l2, set2...)} {
		if got != want {
			t.Errorf("context %d: fingerprint %x, want KeyOf %x", i+1, got, want)
		}
		if h := hex.EncodeToString([]byte(got)); h != goldenKey {
			t.Errorf("context %d: fingerprint %s, want golden %s", i+1, h, goldenKey)
		}
	}
}

// refSupport is the test's own support computation: a map-memoized walk of
// the term DAG, returning sorted variable IDs.
func refSupport(t *smt.Term, memo map[*smt.Term][]uint32) []uint32 {
	if s, ok := memo[t]; ok {
		return s
	}
	set := map[uint32]bool{}
	if t.Kind() == smt.KVar {
		set[t.ID()] = true
	}
	for i := 0; i < t.NumArgs(); i++ {
		for _, id := range refSupport(t.Arg(i), memo) {
			set[id] = true
		}
	}
	s := []uint32{}
	for id := range set {
		s = append(s, id)
	}
	slices.Sort(s)
	memo[t] = s
	return s
}

// refSlice is the reference independence slice: the members of all whose
// support is connected to pivot's through shared variables, plus pivot.
func refSlice(all []*smt.Term, pivot *smt.Term, memo map[*smt.Term][]uint32) ([]*smt.Term, int) {
	comp := map[uint32]bool{}
	for _, id := range refSupport(pivot, memo) {
		comp[id] = true
	}
	in := make([]bool, len(all))
	for changed := true; changed; {
		changed = false
		for i, term := range all {
			if in[i] {
				continue
			}
			touch := term == pivot
			for _, id := range refSupport(term, memo) {
				touch = touch || comp[id]
			}
			if touch {
				in[i], changed = true, true
				for _, id := range refSupport(term, memo) {
					comp[id] = true
				}
			}
		}
	}
	var out []*smt.Term
	for i, term := range all {
		if in[i] {
			out = append(out, term)
		}
	}
	return out, len(all) - len(out)
}

// TestTablesGrowWithContext: terms interned between probes have IDs beyond
// the support memo, the union-find and the mark table; supportOf, Observe and
// markSlice must grow them and agree with the map-based reference.
func TestTablesGrowWithContext(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, ctx, _ := newLocal(t, nil)
	memo := map[*smt.Term][]uint32{}
	var vars, conds []*smt.Term
	for round := 0; round < 40; round++ {
		// New variables and constraints, some over old variables.
		for i := 0; i < 2; i++ {
			vars = append(vars, ctx.Var(fmt.Sprintf("g!%d", len(vars)+1), 8))
		}
		for i := 0; i < 3; i++ {
			a := vars[rng.Intn(len(vars))]
			b := vars[rng.Intn(len(vars))]
			k := ctx.BV(8, uint64(rng.Intn(256)))
			switch rng.Intn(3) {
			case 0:
				conds = append(conds, ctx.Ult(ctx.Add(a, k), b))
			case 1:
				conds = append(conds, ctx.Eq(ctx.Xor(a, b), k))
			default:
				conds = append(conds, ctx.Ule(a, k))
			}
		}
		// The pivot is over this round's newest variable, so it is a new term.
		newest := ctx.Ult(ctx.Add(vars[len(vars)-1], ctx.BV(8, 1)), vars[rng.Intn(len(vars))])
		conds = append(conds, newest)
		if round > 0 && (int(newest.ID()) <= len(l.support) || int(newest.ID()) <= len(l.mark)) {
			t.Fatalf("round %d: pivot ID %d is inside the tables (%d, %d)", round, newest.ID(), len(l.support), len(l.mark))
		}
		all := make([]*smt.Term, 0, 8)
		l.BeginPath(nil, nil)
		for i := 0; i < 7; i++ {
			c := conds[rng.Intn(len(conds))]
			all = append(all, c)
			l.Observe(c, false)
		}
		all = append(all, newest)

		for _, c := range all {
			if got, want := l.supportOf(c), refSupport(c, memo); !slices.Equal(got, want) {
				t.Fatalf("round %d: supportOf(%v) = %v, want %v", round, c, got, want)
			}
		}
		dropped := l.markSlice(newest)
		got := l.sliceTerms(newest, dropped)
		want, wantDropped := refSlice(all, newest, memo)
		if !slices.Equal(got, want) || dropped != wantDropped {
			t.Fatalf("round %d: slice = %v (dropped %d), want %v (dropped %d)", round, got, dropped, want, wantDropped)
		}
	}
}

// TestStackModelsNeverLeak drives random paths through the stack tier, with
// BeginPath recycling, maxStack evictions and Observe drops, so evaluators
// are recycled across models all the time. Every model a stack hit returns,
// and every model left on the stack, must satisfy the whole constraint set
// under a fresh smt.Eval: a recycled evaluator that kept its old memo would
// vouch for a model that fails it.
func TestStackModelsNeverLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ctx *smt.Context
	holds := func(m VarModel, cs ...*smt.Term) bool {
		env := m.Names(ctx)
		for _, c := range cs {
			if v, err := smt.EvalBool(c, env); err != nil || !v {
				return false
			}
		}
		return true
	}
	var evictions, drops int
	for trial := 0; trial < 20; trial++ {
		var l *Local
		l, ctx, _ = newLocal(t, nil)
		vs := []*smt.Term{ctx.Var("a", 4), ctx.Var("b", 4), ctx.Var("c", 4)}
		var pool []*smt.Term
		for i := 0; i < 16; i++ {
			x, y := vs[rng.Intn(3)], vs[rng.Intn(3)]
			k := ctx.BV(4, uint64(rng.Intn(16)))
			switch rng.Intn(3) {
			case 0:
				pool = append(pool, ctx.Ult(x, k))
			case 1:
				pool = append(pool, ctx.Ule(ctx.Add(x, y), k))
			default:
				pool = append(pool, ctx.Eq(ctx.And(x, k), ctx.And(y, k)))
			}
		}
		var seed VarModel
		var seedPrefix []*smt.Term
		for path := 0; path < 30; path++ {
			var pcs []*smt.Term
			if seed != nil && rng.Intn(2) == 0 {
				l.BeginPath(seed, nil)
				for _, c := range seedPrefix {
					l.Observe(c, true)
					pcs = append(pcs, c)
				}
			} else {
				l.BeginPath(nil, nil)
			}
			for step := 0; step < 10; step++ {
				if rng.Intn(3) == 0 {
					// A concretization-style model query pushes the solver's
					// model, evicting the oldest one when the stack is full.
					full := len(l.stack) == maxStack
					if l.CheckModel(nil) == solver.Sat && full {
						evictions++
					}
				}
				c := pool[rng.Intn(len(pool))]
				if rng.Intn(2) == 0 {
					c = ctx.BNot(c)
				}
				hits := l.Stats().StackHits
				res, env := l.CheckWitness(c)
				if l.Stats().StackHits > hits && env == nil {
					t.Fatalf("trial %d path %d: stack hit returned no model", trial, path)
				}
				if env != nil && !holds(env, append(pcs, c)...) {
					t.Fatalf("trial %d path %d: returned model %v fails the constraints", trial, path, env)
				}
				if env != nil {
					seed, seedPrefix = env, append(slices.Clone(pcs), c)
				}
				if res != solver.Sat {
					c = ctx.BNot(c) // pcs is satisfiable and pcs ∧ c is not
				}
				pcs = append(pcs, c)
				n := len(l.stack)
				l.Observe(c, false)
				if len(l.stack) < n {
					drops++
				}
				for _, m := range l.stack {
					if !holds(m.m, pcs...) {
						t.Fatalf("trial %d path %d: stacked model %v fails the path constraints", trial, path, m.m)
					}
				}
			}
		}
	}
	if evictions < 100 || drops < 100 {
		t.Fatalf("%d evictions, %d Observe drops: the sequence no longer exercises recycling", evictions, drops)
	}
}

// BenchmarkCacheProbe replays a fixed probe sequence through one Local: a
// decode-style chain of feasibility queries over instruction words, path
// after path, the way replayed exploration re-probes the same prefixes.
// After the first paths every probe is answered by the stack or an exact
// hit, so ns/op and allocs/op measure the layer itself.
// Sub-benchmarks: n18 is the original 18-constraint path (one word plus an
// independent rs1 pair); n54 is one 54-constraint component, the mean slice
// size of the exhaustive limit-1 tree; n216 is n54 extended to 216
// constraints on the same word by 4-bit field bounds, so its ns/op divided
// by 216 against n54's divided by 54 shows whether a probe's cost grows
// with the path; comp2 interleaves two independent 27-constraint words, so
// slicing drops half the path on every probe.
func BenchmarkCacheProbe(b *testing.B) {
	b.Run("n18", func(b *testing.B) {
		benchProbe(b, func(ctx *smt.Context) []*smt.Term {
			rs1 := ctx.Var("rs1", 32)
			return append(decodeConds(ctx, ctx.Var("insn", 32), 16),
				ctx.Ult(rs1, ctx.BV(32, 0x1000)), ctx.Eq(ctx.Extract(rs1, 1, 0), ctx.BV(2, 0)))
		})
	})
	b.Run("n54", func(b *testing.B) {
		benchProbe(b, func(ctx *smt.Context) []*smt.Term {
			return decodeConds(ctx, ctx.Var("insn", 32), 54)
		})
	})
	b.Run("n216", func(b *testing.B) {
		benchProbe(b, func(ctx *smt.Context) []*smt.Term {
			insn := ctx.Var("insn", 32)
			cs := decodeConds(ctx, insn, 54)
			for i := 0; len(cs) < 216; i++ {
				lo := i % 29
				cs = append(cs, ctx.Ule(ctx.Extract(insn, lo+3, lo), ctx.BV(4, uint64(8+i/29))))
			}
			return cs
		})
	})
	b.Run("comp2", func(b *testing.B) {
		benchProbe(b, func(ctx *smt.Context) []*smt.Term {
			x := decodeConds(ctx, ctx.Var("insn", 32), 27)
			y := decodeConds(ctx, ctx.Var("next", 32), 27)
			var cs []*smt.Term
			for i := range x {
				cs = append(cs, x[i], y[i])
			}
			return cs
		})
	})
}

// decodeConds returns n decode conditions over one instruction word: eight
// opcode matches, eight funct3 matches, then single-bit and two-bit field
// tests.
func decodeConds(ctx *smt.Context, insn *smt.Term, n int) []*smt.Term {
	op := ctx.And(insn, ctx.BV(32, 0x7f))
	f3 := ctx.Extract(insn, 14, 12)
	var cs []*smt.Term
	for _, m := range []uint64{0x33, 0x13, 0x63, 0x03, 0x23, 0x37, 0x17, 0x6f} {
		cs = append(cs, ctx.Eq(op, ctx.BV(32, m)))
	}
	for f := uint64(0); f < 8; f++ {
		cs = append(cs, ctx.Eq(f3, ctx.BV(3, f)))
	}
	for i := 7; len(cs) < n; i++ {
		if i < 32 {
			cs = append(cs, ctx.Eq(ctx.Extract(insn, i, i), ctx.BV(1, 1)))
		} else {
			lo := 7 + (i-32)%24
			cs = append(cs, ctx.Eq(ctx.Extract(insn, lo+1, lo), ctx.BV(2, uint64(i%4))))
		}
	}
	return cs[:n]
}

// benchProbe times whole paths over the conditions build returns: each
// condition, polarised by the path's mask, is probed and then observed in
// its feasible direction.
func benchProbe(b *testing.B, build func(*smt.Context) []*smt.Term) {
	ctx := smt.NewContext()
	l := NewLocal(ctx, solver.New(ctx), nil)
	conds := build(ctx)
	path := func(mask int) {
		l.BeginPath(nil, nil)
		for i, c := range conds {
			if mask>>(i%8)&1 == 0 {
				c = ctx.BNot(c)
			}
			if l.CheckFeasible(c) != solver.Sat {
				c = ctx.BNot(c)
			}
			l.Observe(c, false)
		}
	}
	for mask := 0; mask < 16; mask++ {
		path(mask)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path(i % 16)
	}
}

// TestWarmProbeAllocs pins the two warm probe answers at zero allocations:
// a stack hit (the stacked model satisfies the pivot) and an exact unsat hit
// (the probe's set is a recorded unsat entry).
func TestWarmProbeAllocs(t *testing.T) {
	l, ctx, _ := newLocal(t, nil)
	a := ctx.Var("a", 8)
	b := ctx.Var("b", 8)
	l.BeginPath(nil, nil)
	lo := ctx.Ult(a, ctx.BV(8, 10))
	observe(l, lo, ctx.Ult(a, b))
	if l.CheckModel(nil) != solver.Sat {
		t.Fatal("path unsatisfiable")
	}
	hit := ctx.Ult(a, ctx.BV(8, 11)) // implied by lo: every stacked model has it
	hi := ctx.Ult(ctx.BV(8, 20), a)  // contradicts lo
	if l.CheckFeasible(hi) != solver.Unsat || l.CheckFeasible(hi) != solver.Unsat {
		t.Fatal("hi not unsat")
	}
	for _, c := range []struct {
		name  string
		pivot *smt.Term
		want  solver.Result
		count func(Stats) uint64
	}{
		{"stack hit", hit, solver.Sat, func(s Stats) uint64 { return s.StackHits }},
		{"exact unsat", hi, solver.Unsat, func(s Stats) uint64 { return s.ExactHits }},
	} {
		before := c.count(l.Stats())
		n := testing.AllocsPerRun(100, func() {
			if l.CheckFeasible(c.pivot) != c.want {
				t.Fatalf("%s: answer changed", c.name)
			}
		})
		if got := c.count(l.Stats()) - before; got != 101 {
			t.Fatalf("%s: %d of 101 probes answered by it", c.name, got)
		}
		if n != 0 {
			t.Errorf("%s: %v allocations per probe, want 0", c.name, n)
		}
	}
}
