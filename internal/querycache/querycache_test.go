package querycache

import (
	"testing"

	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

func newLocal(t *testing.T, shared *Shared) (*Local, *smt.Context, *solver.Solver) {
	t.Helper()
	ctx := smt.NewContext()
	sol := solver.New(ctx)
	return NewLocal(ctx, sol, shared), ctx, sol
}

// TestStackSeedAndObserve: a seeded model answers queries it satisfies with
// no solver work, survives trusted replay unconditionally, and is dropped by
// an untrusted constraint it fails.
func TestStackSeedAndObserve(t *testing.T) {
	l, ctx, sol := newLocal(t, nil)
	a := ctx.Var("a", 8)

	l.BeginPath(nil, Model{"a": 5})
	c1 := ctx.Ult(a, ctx.BV(8, 10)) // a < 10: model says true
	if res := l.CheckFeasible(c1); res != solver.Sat {
		t.Fatalf("CheckFeasible = %v, want Sat", res)
	}
	if l.Stats().StackHits != 1 || l.Stats().CDCL != 0 {
		t.Fatalf("stats = %+v, want one stack hit, no CDCL", l.Stats())
	}
	l.Observe(c1, false)

	// The seed survives a trusted constraint it does not satisfy (replay
	// contract: the caller vouches for it)...
	bad := ctx.Ult(ctx.BV(8, 200), a)
	l.Observe(bad, true)
	if res := l.CheckFeasible(nil); res != solver.Unsat {
		// The flip-check form (nil query, pivot = last pc) must consult the
		// solver here: the seed fails the pivot.
		t.Fatalf("flip check = %v, want Unsat", res)
	}
	// ...and is dropped by the same constraint when untrusted.
	l.BeginPath(nil, Model{"a": 5})
	l.Observe(bad, false)
	checks := sol.Stats().Checks
	if res := l.CheckFeasible(ctx.Ult(ctx.BV(8, 100), a)); res != solver.Sat {
		t.Fatalf("after drop: CheckFeasible = %v, want Sat", res)
	}
	if got := sol.Stats().Checks; got == checks {
		t.Fatal("expected the post-drop query to reach the solver")
	}
}

// TestIndependenceSlicing: a pivot sharing no variables with the rest of the
// constraint set is solved on its own component only.
func TestIndependenceSlicing(t *testing.T) {
	l, ctx, _ := newLocal(t, nil)
	a := ctx.Var("a", 8)
	b := ctx.Var("b", 8)
	l.BeginPath(nil, nil)

	observe(l, ctx.Ult(a, ctx.BV(8, 10)), ctx.Ult(ctx.BV(8, 3), a))
	pivot := ctx.Eq(b, ctx.BV(8, 7))
	if res := l.CheckFeasible(pivot); res != solver.Sat {
		t.Fatalf("CheckFeasible = %v, want Sat", res)
	}
	st := l.Stats()
	if st.SlicedQueries != 1 || st.SlicedDropped != 2 {
		t.Fatalf("stats = %+v, want 1 sliced query dropping 2 constraints", st)
	}
}

// TestSliceConnectsTransitively: components are closed under shared
// variables, so a chain a~b, b~c all lands in the pivot's slice.
func TestSliceConnectsTransitively(t *testing.T) {
	l, ctx, _ := newLocal(t, nil)
	a, b, c := ctx.Var("a", 8), ctx.Var("b", 8), ctx.Var("c", 8)
	d := ctx.Var("d", 8)
	all := []*smt.Term{
		ctx.Ult(a, b),
		ctx.Ult(b, c),
		ctx.Ult(d, ctx.BV(8, 5)), // independent
	}
	pivot := ctx.Ult(c, ctx.BV(8, 9))
	l.BeginPath(nil, nil)
	observe(l, all...)
	dropped := l.markSlice(pivot)
	slice := l.sliceTerms(pivot, dropped)
	if len(slice) != 3 || dropped != 1 {
		t.Fatalf("slice = %d terms, dropped = %d; want 3 and 1", len(slice), dropped)
	}
}

// observe appends constraints to l's path.
func observe(l *Local, cs ...*smt.Term) {
	for _, c := range cs {
		l.Observe(c, false)
	}
}

// TestFingerprintStableAcrossContexts: structurally identical constraint
// sets built in different contexts (and listed in different orders) key
// identically — the property cross-worker sharing rests on.
func TestFingerprintStableAcrossContexts(t *testing.T) {
	l1, ctx1, _ := newLocal(t, nil)
	l2, ctx2, _ := newLocal(t, nil)

	mk := func(ctx *smt.Context) (x, y *smt.Term) {
		v := ctx.Var("v", 32)
		w := ctx.Var("w", 32)
		return ctx.Eq(ctx.Extract(v, 6, 0), ctx.BV(7, 0x13)), ctx.Ult(w, v)
	}
	x1, y1 := mk(ctx1)
	x2, y2 := mk(ctx2)

	k1 := fp(l1, x1, y1)
	k2 := fp(l2, y2, x2)
	if k1 != k2 {
		t.Fatal("fingerprints differ across contexts / orders")
	}
	k3 := fp(l2, x2)
	if k1 == k3 {
		t.Fatal("distinct sets share a fingerprint")
	}
	// A twice-asserted constraint keys like a once-asserted one.
	k4 := fp(l1, x1, y1, x1)
	if k4 != k1 {
		t.Fatal("duplicate constraint changed the fingerprint")
	}
}

// fp returns a copy of l's fingerprint key for ts (fingerprint itself
// returns a buffer the next call overwrites).
func fp(l *Local, ts ...*smt.Term) string {
	return string(l.key(l.fingerprint(ts)))
}

// TestExactHit: repeating a query answers from the entry map without a
// second solver call.
func TestExactHit(t *testing.T) {
	l, ctx, sol := newLocal(t, nil)
	a := ctx.Var("a", 8)
	l.BeginPath(nil, nil)
	q := []*smt.Term{ctx.Ult(a, ctx.BV(8, 10)), ctx.Ult(ctx.BV(8, 20), a)}
	observe(l, q[0])
	if res := l.CheckFeasible(q[1]); res != solver.Unsat {
		t.Fatalf("first = %v, want Unsat", res)
	}
	checks := sol.Stats().Checks
	if res := l.CheckFeasible(q[1]); res != solver.Unsat {
		t.Fatalf("second = %v, want Unsat", res)
	}
	if sol.Stats().Checks != checks {
		t.Fatal("repeat query reached the solver")
	}
	st := l.Stats()
	if st.ExactHits+st.SupersetUnsat != 1 {
		t.Fatalf("stats = %+v, want the repeat answered by the cache", st)
	}
}

// TestSupersetUnsat: once a set is known unsat, any superset is answered
// unsat without the solver — including across unrelated extra constraints,
// via the unsat core.
func TestSupersetUnsat(t *testing.T) {
	l, ctx, sol := newLocal(t, nil)
	a := ctx.Var("a", 8)
	b := ctx.Var("b", 8)
	l.BeginPath(nil, nil)

	lo := ctx.Ult(a, ctx.BV(8, 10))
	hi := ctx.Ult(ctx.BV(8, 20), a)
	observe(l, lo)
	if res := l.CheckFeasible(hi); res != solver.Unsat {
		t.Fatalf("core query = %v, want Unsat", res)
	}
	checks := sol.Stats().Checks

	// Superset with an extra constraint over the same variable (so slicing
	// cannot remove it): still answered by the unsat subset.
	observe(l, ctx.Ult(a, b))
	if res := l.CheckFeasible(hi); res != solver.Unsat {
		t.Fatalf("superset query = %v, want Unsat", res)
	}
	if sol.Stats().Checks != checks {
		t.Fatal("superset query reached the solver")
	}
	if l.Stats().SupersetUnsat != 1 {
		t.Fatalf("stats = %+v, want one superset hit", l.Stats())
	}
}

// TestSharedFlushAndAdopt: entries published by one worker answer another
// worker's queries across distinct term contexts.
func TestSharedFlushAndAdopt(t *testing.T) {
	store := NewShared()
	l1, ctx1, _ := newLocal(t, store)
	l1.BeginPath(nil, nil)
	a1 := ctx1.Var("a", 8)
	observe(l1, ctx1.Ult(a1, ctx1.BV(8, 10)))
	if res := l1.CheckFeasible(ctx1.Ult(ctx1.BV(8, 20), a1)); res != solver.Unsat {
		t.Fatalf("worker 1 = %v, want Unsat", res)
	}
	if store.Len() != 0 {
		t.Fatal("entry published before Flush")
	}
	l1.Flush()
	if store.Len() == 0 {
		t.Fatal("Flush published nothing")
	}

	l2, ctx2, sol2 := newLocal(t, store)
	l2.BeginPath(nil, nil)
	a2 := ctx2.Var("a", 8)
	observe(l2, ctx2.Ult(a2, ctx2.BV(8, 10)))
	if res := l2.CheckFeasible(ctx2.Ult(ctx2.BV(8, 20), a2)); res != solver.Unsat {
		t.Fatalf("worker 2 = %v, want Unsat", res)
	}
	if sol2.Stats().Checks != 0 {
		t.Fatal("worker 2 re-solved a shared answer")
	}
	if l2.Stats().ExactHits != 1 {
		t.Fatalf("worker 2 stats = %+v, want one exact hit", l2.Stats())
	}
}

// TestCheckModelPassThrough: model-bearing queries always reach the solver,
// even when a cached answer exists, so engine-visible model values never
// depend on cache state.
func TestCheckModelPassThrough(t *testing.T) {
	l, ctx, sol := newLocal(t, nil)
	a := ctx.Var("a", 8)
	l.BeginPath(nil, Model{"a": 3})
	c := ctx.Ult(a, ctx.BV(8, 10))
	if res := l.CheckModel(c); res != solver.Sat {
		t.Fatalf("CheckModel = %v, want Sat", res)
	}
	if sol.Stats().Checks != 1 {
		t.Fatalf("solver checks = %d, want 1 (pass-through)", sol.Stats().Checks)
	}
	if l.Stats().ModelQueries != 1 || l.Stats().StackHits != 0 {
		t.Fatalf("stats = %+v, want a model pass-through, no stack hit", l.Stats())
	}
}

// TestCheckWitnessCompleteModel: a witness answered from the cache carries a
// model that satisfies the entire constraint set.
func TestCheckWitnessCompleteModel(t *testing.T) {
	l, ctx, _ := newLocal(t, nil)
	a := ctx.Var("a", 8)
	l.BeginPath(nil, Model{"a": 4})
	pcs := []*smt.Term{ctx.Ult(a, ctx.BV(8, 10))}
	l.Observe(pcs[0], false)
	cond := ctx.Ult(ctx.BV(8, 2), a)
	res, m := l.CheckWitness(cond)
	if res != solver.Sat || m == nil {
		t.Fatalf("CheckWitness = (%v, %v), want Sat with a model", res, m)
	}
	for _, tm := range append(pcs, cond) {
		v, err := smt.EvalBool(tm, m.Names(ctx))
		if err != nil || !v {
			t.Fatalf("witness fails constraint %v", tm)
		}
	}
}

// TestExactHitMergeIsWitness: an exact hit on a sliced query overlays the
// cached slice model onto the stack base. The entry's model is total over
// its support, so the base cannot leak its value for a slice variable into
// the result (base {x:2, y:5}, cached model {x:0}, query x==0 must not
// yield the non-witness {x:2, y:5}).
func TestExactHitMergeIsWitness(t *testing.T) {
	l, ctx, _ := newLocal(t, nil)
	x := ctx.Var("x", 8)
	y := ctx.Var("y", 8)
	q := ctx.Eq(x, ctx.BV(8, 0))

	// Path A caches the answer for {x == 0}.
	l.BeginPath(nil, nil)
	if res := l.CheckFeasible(q); res != solver.Sat {
		t.Fatalf("path A query = %v, want Sat", res)
	}

	// Path B: stacked model {x:2, y:5}, constraint y < 10 (independent of x,
	// so slicing leaves exactly path A's set).
	pcs := []*smt.Term{ctx.Ult(y, ctx.BV(8, 10))}
	l.BeginPath(nil, Model{"x": 2, "y": 5})
	l.Observe(pcs[0], false)

	res, m := l.CheckSibling(q)
	if res != solver.Sat {
		t.Fatalf("CheckSibling = %v, want Sat", res)
	}
	if st := l.Stats(); st.ExactHits != 1 {
		t.Fatalf("stats = %+v, want the sibling answered by one exact hit", st)
	}
	if m == nil {
		t.Fatal("CheckSibling returned no seed model")
	}
	for _, tm := range append(pcs, q) {
		if v, err := smt.EvalBool(tm, m.Names(ctx)); err != nil || !v {
			t.Fatalf("seed model %v fails constraint %v", m, tm)
		}
	}
}

// TestWitnessFallbackAccounting: the full-witness re-derivation after a
// partial-model answer is counted in ModelQueries only, so the identity
// Queries = Eliminated + CDCL still reconciles on the fallback path.
func TestWitnessFallbackAccounting(t *testing.T) {
	l, ctx, sol := newLocal(t, nil)
	a := ctx.Var("a", 8)
	b := ctx.Var("b", 8)
	l.BeginPath(nil, nil)

	// The pivot's slice excludes the a-constraint and no stack model exists,
	// so check() answers Sat with a partial model and CheckWitness must
	// re-derive the full witness from the solver.
	observe(l, ctx.Ult(a, ctx.BV(8, 10)))
	cond := ctx.Ult(b, ctx.BV(8, 5))
	res, _ := l.CheckWitness(cond)
	if res != solver.Sat {
		t.Fatalf("CheckWitness = %v, want Sat", res)
	}
	st := l.Stats()
	if st.Queries != st.Eliminated()+st.CDCL {
		t.Fatalf("stats = %+v: Queries != Eliminated + CDCL", st)
	}
	if st.ModelQueries != 1 || st.CDCL != 1 {
		t.Fatalf("stats = %+v, want one model pass-through and one CDCL query", st)
	}
	if got := sol.Stats().Checks; got != 2 {
		t.Fatalf("solver checks = %d, want 2 (sliced feasibility + full witness)", got)
	}
}

// TestSiblingModelNotPushed: CheckSibling must not leave the sibling's model
// on this path's stack (the path asserts the opposite direction next).
func TestSiblingModelNotPushed(t *testing.T) {
	l, ctx, _ := newLocal(t, nil)
	a := ctx.Var("a", 8)
	l.BeginPath(nil, nil)
	cond := ctx.Ult(a, ctx.BV(8, 10))
	res, m := l.CheckSibling(ctx.BNot(cond))
	if res != solver.Sat || m == nil {
		t.Fatalf("CheckSibling = (%v, %v), want Sat with a complete model", res, m)
	}
	if len(l.stack) != 0 {
		t.Fatalf("stack depth = %d after sibling check, want 0", len(l.stack))
	}
}

// TestModelLookupZeroDefault pins the documented total-assignment contract
// of Model.Lookup: a name absent from the map reads as zero with ok=true,
// never (0, false). Subset-sat model revalidation (stage 5) and
// mergeWithStack's validated-zero bookkeeping both rely on evaluation under
// a Model being total; a future "missing name returns false" change would
// silently break them, so the contract is a regression test, not just a
// doc comment.
func TestModelLookupZeroDefault(t *testing.T) {
	m := Model{"present": 7}
	if v, ok := m.Lookup("present", 32); v != 7 || !ok {
		t.Fatalf("Lookup(present) = (%d, %v), want (7, true)", v, ok)
	}
	if v, ok := m.Lookup("absent", 32); v != 0 || !ok {
		t.Fatalf("Lookup(absent) = (%d, %v), want (0, true) — the zero default is load-bearing", v, ok)
	}
	var nilModel Model
	if v, ok := nilModel.Lookup("anything", 8); v != 0 || !ok {
		t.Fatalf("nil Model Lookup = (%d, %v), want (0, true)", v, ok)
	}
}

// TestSnapshotImportRoundtrip: entries published by one worker, snapshotted,
// and imported into a fresh Shared answer the same queries, and the hits are
// attributed to the store.
func TestSnapshotImportRoundtrip(t *testing.T) {
	shared := NewShared()
	l, ctx, _ := newLocal(t, shared)
	a := ctx.Var("a", 8)
	l.BeginPath(nil, nil)
	sat := ctx.Ult(a, ctx.BV(8, 10))
	unsat := ctx.Ult(ctx.BV(8, 200), ctx.BV(8, 100))
	if res := l.CheckFeasible(sat); res != solver.Sat {
		t.Fatalf("sat probe = %v", res)
	}
	if res := l.CheckFeasible(unsat); res != solver.Unsat {
		t.Fatalf("unsat probe = %v", res)
	}
	l.Flush()

	snap := shared.Snapshot(nil)
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	for i, pe := range snap {
		if pe.Key != KeyOf(pe.Hashes) {
			t.Fatalf("entry %d: Key != KeyOf(Hashes)", i)
		}
		if i > 0 && snap[i-1].Key >= pe.Key {
			t.Fatalf("snapshot not sorted by key")
		}
		if pe.Sat && pe.Model == nil {
			t.Fatalf("entry %d: sat entry without model", i)
		}
	}

	warm := NewShared()
	if n := warm.Import(snap); n != 2 {
		t.Fatalf("Import = %d, want 2", n)
	}
	if n := warm.Import(snap); n != 0 {
		t.Fatalf("re-Import = %d, want 0 (first writer wins)", n)
	}

	// A fresh context rebuilds structurally identical terms, so the imported
	// entries must answer the same queries without the solver.
	l2, ctx2, sol2 := newLocal(t, warm)
	a2 := ctx2.Var("a", 8)
	l2.BeginPath(nil, nil)
	sat2 := ctx2.Ult(a2, ctx2.BV(8, 10))
	unsat2 := ctx2.Ult(ctx2.BV(8, 200), ctx2.BV(8, 100))
	if res := l2.CheckFeasible(sat2); res != solver.Sat {
		t.Fatalf("warm sat probe = %v", res)
	}
	if res := l2.CheckFeasible(unsat2); res != solver.Unsat {
		t.Fatalf("warm unsat probe = %v", res)
	}
	st := l2.Stats()
	if st.ExactHits != 2 || st.StoreHits != 2 {
		t.Fatalf("stats = %+v, want 2 exact hits attributed to the store", st)
	}
	if got := sol2.Stats().Checks; got != 0 {
		t.Fatalf("warm probes reached the solver %d times, want 0", got)
	}
}

// TestImportRejectsMalformed: schema-drifted entries are dropped, not
// trusted.
func TestImportRejectsMalformed(t *testing.T) {
	s := NewShared()
	bad := []PortableEntry{
		{Hashes: nil, Sat: false},                       // empty set
		{Hashes: []uint64{3, 2}, Sat: false},            // unsorted
		{Hashes: []uint64{2, 2}, Sat: false},            // duplicated
		{Hashes: []uint64{1, 2}, Sat: true, Model: nil}, // sat without model
	}
	if n := s.Import(bad); n != 0 {
		t.Fatalf("Import accepted %d malformed entries", n)
	}
	good := []PortableEntry{{Hashes: []uint64{1, 2}, Sat: true, Model: Model{"x": 1}}}
	if n := s.Import(good); n != 1 {
		t.Fatalf("Import rejected a valid entry")
	}
}

// TestSharedConcurrentAccess hammers the Shared store from three sides at
// once — worker-style get/put batches, store-load-style Import, and
// persist-style Snapshot — mirroring what happens when parexplore hand-off
// flushes race a qstore session checkpoint. Run under -race in CI.
func TestSharedConcurrentAccess(t *testing.T) {
	s := NewShared()
	const workers = 4
	const rounds = 200
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < rounds; i++ {
				h := uint64(w*rounds + i + 1)
				key := KeyOf([]uint64{h})
				batch := []*sharedEntry{{key: key, sat: false}}
				s.put(batch)
				if e := s.get(h, func(k string) bool { return k == key }); e == nil || e.key != key {
					t.Errorf("worker %d: just-put entry %d missing", w, i)
					return
				}
			}
		}(w)
	}
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; i < rounds; i++ {
			h := uint64(1<<32) + uint64(i)
			s.Import([]PortableEntry{{Hashes: []uint64{h}, Sat: true, Model: Model{"v": uint64(i)}}})
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; i < rounds/4; i++ {
			snap := s.Snapshot(nil)
			for j := 1; j < len(snap); j++ {
				if snap[j-1].Key >= snap[j].Key {
					t.Errorf("snapshot %d unsorted", i)
					return
				}
			}
		}
	}()
	for i := 0; i < workers+2; i++ {
		<-done
	}
	if s.Len() == 0 {
		t.Fatal("store empty after concurrent traffic")
	}
}
