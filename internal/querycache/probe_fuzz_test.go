package querycache

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// FuzzProbeState drives BeginPath/Observe/probe sequences over 2–6 small
// variables and checks the incrementally kept path state against references
// written from scratch: after every Observe and probe, each component's
// slot count and set hash and each hash's path count (checkAggregates); at
// every probe, sliced or not, the fixed-point slice (terms, order and
// dropped count), the probe's set (its size, set hash and slot membership
// against the sorted hashes of the slice), and the superset entry an
// ascending scan over smallest-hash buckets finds. The
// entry arena is checked against a map-based reference kept beside it: the
// entry an exact lookup finds for the probe's set, the superset entry, the
// stage that answered and whether StoreHits counted it, and every sat
// entry's model, which must satisfy its constraint set. Every answer is also
// checked against a fresh solver on the unsliced set. The same operations
// run twice: on a cold cache, then on a fresh context whose Shared store
// holds the first run's entries round-tripped through Snapshot and Import,
// so adopted entries carry store models resolved into the new context; on
// both legs the Shared set-hash index must find exactly the store's entry
// for the probe's key.
func FuzzProbeState(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		cold := NewShared()
		l := runProbeOps(t, data, cold)
		snap := cold.Snapshot(nil)
		checkPublished(t, l, snap)
		warm := NewShared()
		warm.Import(snap)
		if got := warm.Snapshot(nil); !equalPortable(got, snap) {
			t.Fatalf("Snapshot after Import differs from the imported snapshot")
		}
		runProbeOps(t, data, warm)
	})
}

// refEntry is the reference's view of one cache entry.
type refEntry struct {
	hs         []uint64
	sat, store bool
	model      Model
}

// viewOf reads arena entry i in the reference's terms, its hashes sorted.
// An unsat entry's slots must already ascend by hash: the superset rule
// reads the first as the smallest.
func viewOf(t *testing.T, l *Local, i uint32) *refEntry {
	e := l.entries[i]
	re := &refEntry{sat: e.sat, store: e.store}
	for _, s := range l.slotsOf(&e) {
		re.hs = append(re.hs, l.hashes[s-1])
	}
	if e.sat {
		re.model = l.entryModel(i).Names(l.ctx)
		slices.Sort(re.hs)
	} else if !slices.IsSorted(re.hs) {
		t.Fatalf("unsat entry %d hashes %x not ascending", i, re.hs)
	}
	return re
}

func (a *refEntry) equal(b *refEntry) bool {
	return slices.Equal(a.hs, b.hs) && a.sat == b.sat && a.store == b.store && maps.Equal(a.model, b.model)
}

// checkAggregates recomputes, from the test's copy of the path, each
// union-find component's distinct-hash count and set hash and each hash's
// path count, and compares them with l's.
func checkAggregates(t *testing.T, l *Local, path []*smt.Term) {
	type agg struct {
		n   uint32
		sum uint64
	}
	want := map[uint32]*agg{}
	seen := map[uint32]bool{}
	slotN := map[uint32]uint32{}
	for _, c := range path {
		s := l.slotOfTerm(c)
		slotN[s]++
		r := l.find(l.keysOf(c)[0])
		if want[r] == nil {
			want[r] = &agg{}
		}
		if !seen[s] {
			seen[s] = true
			want[r].n++
			want[r].sum += l.hashes[s-1]
		}
	}
	for _, v := range l.onPath {
		if r := l.find(v); r == v {
			w := want[r]
			if w == nil {
				w = &agg{}
			}
			if l.nslots[r-1] != w.n || l.sum[r-1] != w.sum {
				t.Fatalf("component %d: %d slots, set hash %x; from the path %d, %x", r, l.nslots[r-1], l.sum[r-1], w.n, w.sum)
			}
		}
	}
	for s := uint32(1); s <= uint32(len(l.hashes)); s++ {
		if l.slotN[s-1] != slotN[s] {
			t.Fatalf("slot %d on %d path constraints, counted %d", s, slotN[s], l.slotN[s-1])
		}
	}
}

// checkPublished checks a Snapshot of a store that one Local filled, with
// nothing adopted, in a single Flush: each key holds the first arena entry
// with that key (first writer wins), its hashes and model by name.
func checkPublished(t *testing.T, l *Local, snap []PortableEntry) {
	want := map[string]*refEntry{}
	for i := range l.entries {
		re := viewOf(t, l, uint32(i))
		if k := KeyOf(re.hs); want[k] == nil {
			want[k] = re
		}
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot holds %d entries, the arena %d distinct sets", len(snap), len(want))
	}
	for _, pe := range snap {
		re := want[pe.Key]
		if re == nil || pe.Key != KeyOf(pe.Hashes) || !slices.Equal(pe.Hashes, re.hs) || pe.Sat != re.sat || !maps.Equal(pe.Model, re.model) {
			t.Fatalf("snapshot entry %x = %+v, want %+v", pe.Key, pe, re)
		}
	}
}

func equalPortable(a, b []PortableEntry) bool {
	return slices.EqualFunc(a, b, func(x, y PortableEntry) bool {
		return x.Key == y.Key && slices.Equal(x.Hashes, y.Hashes) && x.Sat == y.Sat && maps.Equal(x.Model, y.Model)
	})
}

// runProbeOps decodes data into one operation sequence on a fresh context
// and a Local attached to shared, flushing the Local into shared at the end,
// and returns the Local.
func runProbeOps(t *testing.T, data []byte, shared *Shared) *Local {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ctx := smt.NewContext()
	l := NewLocal(ctx, solver.New(ctx), shared)
	fresh := solver.New(ctx)
	const w = 3
	vars := make([]*smt.Term, 2+next()%5)
	for i := range vars {
		vars[i] = ctx.Var(string(rune('a'+i)), w)
	}
	// A small pool of conditions, so the same pivots recur under different
	// paths: that is what exact hits and the superset rule feed on.
	pool := make([]*smt.Term, 4+next()%9)
	for i := range pool {
		k := next()
		x, y := vars[next()%len(vars)], vars[next()%len(vars)]
		c := ctx.BV(w, uint64(next()))
		switch k % 6 {
		case 0:
			pool[i] = ctx.Ult(x, c)
		case 1:
			pool[i] = ctx.Ule(ctx.Add(x, y), c)
		case 2:
			pool[i] = ctx.Eq(ctx.Xor(x, y), c)
		case 3:
			pool[i] = ctx.Ne(x, c)
		case 4:
			pool[i] = ctx.Ult(c, ctx.BV(w, uint64(next()))) // folds to a constant
		default:
			pool[i] = ctx.Eq(ctx.And(x, c), ctx.And(y, c))
		}
	}
	cond := func() *smt.Term {
		k := next()
		c := pool[k%len(pool)]
		if k&0x80 != 0 {
			c = ctx.BNot(c)
		}
		return c
	}

	memo := map[*smt.Term][]uint32{}
	var path []*smt.Term // the test's own copy of the path
	termOf := map[uint64]*smt.Term{}

	// The reference cache, mirrored from the arena after every probe: the
	// entry exact lookup must find per key, and the unsat entries in the
	// order the superset index holds them.
	refExact := map[string]*refEntry{}
	var byIndex, indexed []*refEntry
	mirror := func(want []uint64, adopted *sharedEntry) {
		wantKey := KeyOf(want)
		for i := len(byIndex); i < len(l.entries); i++ {
			re := viewOf(t, l, uint32(i))
			k := KeyOf(re.hs)
			if adopted != nil {
				// Adopted: the shared entry for the probe's own set, its
				// model resolved into this context.
				want := &refEntry{hs: hashesOf(adopted.key), sat: adopted.sat, store: adopted.store, model: adopted.model}
				if k != wantKey || !re.equal(want) {
					t.Fatalf("adopted entry %+v, want %+v", re, want)
				}
			} else if !re.sat && !isSubset(re.hs, want) || re.sat && k != wantKey || re.store {
				t.Fatalf("new entry %+v is not for the probe's set %x", re, wantKey)
			}
			for _, h := range re.hs {
				if re.sat {
					if v, err := smt.EvalBool(termOf[h], re.model); err != nil || !v {
						t.Fatalf("entry model %v fails %v", re.model, termOf[h])
					}
				}
			}
			byIndex = append(byIndex, re)
			refExact[k] = re
			if !re.sat {
				indexed = append(indexed, re)
			}
		}
	}
	l.BeginPath(nil, nil)
	probe := func(query *smt.Term, ask func() solver.Result) solver.Result {
		pivot := query
		if pivot == nil {
			pivot = path[len(path)-1]
		}
		all := slices.Clone(path)
		if query != nil {
			all = append(all, query)
		}
		wantSlice, wantDropped := refSlice(all, pivot, memo)
		var hs []uint64
		for _, c := range wantSlice {
			h := ctx.StructuralHash(c)
			hs = append(hs, h)
			termOf[h] = c
		}
		slices.Sort(hs)
		hs = slices.Compact(hs)
		wantKey := KeyOf(hs)

		dropped := l.markSlice(pivot)
		ps := l.slotOfTerm(pivot)
		l.probeSet(ps, query != nil, dropped)
		var sum uint64
		for _, h := range hs {
			sum += h
		}
		if l.pn != uint32(len(hs)) || l.psum != sum {
			t.Fatalf("probe set of %v: %d hashes, set hash %x; want %d, %x", wantSlice, l.pn, l.psum, len(hs), sum)
		}
		for s := uint32(1); s <= uint32(len(l.hashes)); s++ {
			if _, want := slices.BinarySearch(hs, l.hashes[s-1]); l.inProbe(s) != want {
				t.Fatalf("slot %d (hash %x) in probe set %v, want %v (set %x)", s, l.hashes[s-1], !want, want, hs)
			}
		}
		wantExact := refExact[wantKey]
		if i, ok := l.localLookup(); ok != (wantExact != nil) || ok && byIndex[i] != wantExact {
			t.Fatalf("exact lookup of %x: arena entry %v (found %v), reference %+v", wantKey, i, ok, wantExact)
		}
		wantSup := refSuperset(indexed, hs)
		if i, ok := l.supersetUnsat(ps); ok != (wantSup != nil) || ok && byIndex[i] != wantSup {
			t.Fatalf("superset entry of %x: arena entry %v (found %v), reference %+v", wantKey, i, ok, wantSup)
		}
		adopt := shared.m[wantKey]
		if got := shared.get(l.psum, l.keyInProbe); got != adopt {
			t.Fatalf("shared index for %x: %+v, store entry %+v", wantKey, got, adopt)
		}
		gotSlice := slices.Clone(l.sliceTerms(query, dropped))
		if dropped != wantDropped || !slices.Equal(gotSlice, wantSlice) {
			t.Fatalf("slice of %v over %v = %v (dropped %d), want %v (dropped %d)", pivot, all, gotSlice, dropped, wantSlice, wantDropped)
		}

		before := l.Stats()
		res := ask()
		if want := fresh.Check(all...); res != want {
			t.Fatalf("answer for %v = %v, want %v", all, res, want)
		}
		after := l.Stats()
		var answeredBy *refEntry
		switch {
		case after.ExactHits > before.ExactHits:
			answeredBy = wantExact
			if answeredBy == nil {
				if adopt == nil {
					t.Fatalf("exact hit on %x with no entry for it", wantKey)
				}
				answeredBy = &refEntry{store: adopt.store}
			}
		case after.SupersetUnsat > before.SupersetUnsat:
			answeredBy = wantSup
			if wantExact != nil || adopt != nil || wantSup == nil {
				t.Fatalf("superset hit on %x: exact %+v, shared %+v, superset %+v", wantKey, wantExact, adopt, wantSup)
			}
		case after.CDCL > before.CDCL:
			if wantExact != nil || adopt != nil || wantSup != nil {
				t.Fatalf("%x reached the solver past exact %+v, shared %+v, superset %+v", wantKey, wantExact, adopt, wantSup)
			}
		}
		if got, want := after.StoreHits-before.StoreHits, answeredBy != nil && answeredBy.store; (got == 1) != want || got > 1 {
			t.Fatalf("StoreHits += %d for an answer by %+v", got, answeredBy)
		}
		if wantExact == nil && after.ExactHits > before.ExactHits {
			mirror(hs, adopt)
		} else {
			mirror(hs, nil)
		}
		checkAggregates(t, l, path)
		return res
	}
	observe := func(c *smt.Term) {
		l.Observe(c, false)
		path = append(path, c)
		checkAggregates(t, l, path)
	}
	begin := func() {
		l.BeginPath(nil, nil)
		path = path[:0]
	}

	for len(data) > 0 {
		switch op := next() % 16; {
		case op == 0:
			begin()
		case op <= 3 || op > 7 && op < 15:
			// A fresh branch: keep whichever direction is feasible, so the
			// path stays satisfiable.
			c := cond()
			var res solver.Result
			switch op % 4 {
			case 1:
				res = probe(c, func() solver.Result { return l.CheckFeasible(c) })
			case 2:
				res = probe(c, func() solver.Result { r, _ := l.CheckSibling(c); return r })
			case 3:
				res = probe(c, func() solver.Result { r, _ := l.CheckWitness(c); return r })
			default:
				res = probe(c, func() solver.Result { return l.CheckFeasible(c) })
			}
			if res != solver.Sat {
				c = ctx.BNot(c)
			}
			observe(c)
		case op == 4 || op == 15:
			// A flipped branch: observe, then the nil-query flip check; an
			// infeasible flip aborts the path.
			observe(cond())
			if probe(nil, func() solver.Result { return l.CheckFeasible(nil) }) != solver.Sat {
				begin()
			}
		case op == 5 && len(path) > 0:
			// A pivot already on the path.
			c := path[next()%len(path)]
			probe(c, func() solver.Result { return l.CheckFeasible(c) })
		case op == 6 && len(path) > 0:
			observe(path[next()%len(path)]) // a repeated constraint
		case op == 7:
			if l.CheckModel(nil) != solver.Sat {
				t.Fatalf("path %v unsatisfiable", path)
			}
		}
	}
	l.Flush()
	return l
}

// refSuperset is the superset rule as an ascending scan of hs over unsat
// entries bucketed by their smallest hash, in index order: the first known
// unsat subset of hs, or nil.
func refSuperset(indexed []*refEntry, hs []uint64) *refEntry {
	byMin := map[uint64][]*refEntry{}
	for _, e := range indexed {
		byMin[e.hs[0]] = append(byMin[e.hs[0]], e)
	}
	in := map[uint64]bool{}
	for _, h := range hs {
		in[h] = true
	}
	for _, h := range hs {
	scan:
		for _, e := range byMin[h] {
			for _, eh := range e.hs {
				if !in[eh] {
					continue scan
				}
			}
			return e
		}
	}
	return nil
}

// isSubset reports whether sorted slice sub is a subset of sorted slice sup.
func isSubset(sub, sup []uint64) bool {
	i := 0
	for _, h := range sub {
		for i < len(sup) && sup[i] < h {
			i++
		}
		if i >= len(sup) || sup[i] != h {
			return false
		}
		i++
	}
	return true
}
