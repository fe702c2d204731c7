package querycache

import (
	"math/rand"
	"slices"
	"testing"

	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// FuzzProbeState drives BeginPath/Observe/probe sequences over 2–6 small
// variables and checks the incrementally kept path state at every probe
// against references written from scratch: the fixed-point slice (terms,
// order and dropped count), KeyOf of the slice's sorted hashes, and the
// superset entry an ascending scan over smallest-hash buckets finds. Every
// answer is also checked against a fresh solver on the unsliced set. The
// same operations run twice: on a cold cache, then on a fresh context whose
// Shared store holds the first run's entries imported as store entries.
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
		runProbeOps(t, data, cold)
		warm := NewShared()
		warm.Import(cold.Snapshot())
		runProbeOps(t, data, warm)
	})
}

// runProbeOps decodes data into one operation sequence on a fresh context
// and a Local attached to shared, flushing the Local into shared at the end.
func runProbeOps(t *testing.T, data []byte, shared *Shared) {
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
	var indexed []*entry // unsat entries in the order l indexed them
	l.BeginPath(nil)
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
			hs = append(hs, ctx.StructuralHash(c))
		}
		slices.Sort(hs)
		wantKey := KeyOf(slices.Compact(hs))

		dropped := l.markSlice(pivot)
		gotSlice := slices.Clone(l.sliceTerms(query, dropped))
		ph := ctx.StructuralHash(pivot)
		key, ghs := l.sliceKey(ph, query != nil, dropped)
		gotKey := string(key)
		gotSup, wantSup := l.supersetUnsat(ph, ghs), refSuperset(indexed, ghs)
		if dropped != wantDropped || !slices.Equal(gotSlice, wantSlice) {
			t.Fatalf("slice of %v over %v = %v (dropped %d), want %v (dropped %d)", pivot, all, gotSlice, dropped, wantSlice, wantDropped)
		}
		if gotKey != wantKey {
			t.Fatalf("key of %v = %x, want %x", wantSlice, gotKey, wantKey)
		}
		if gotSup != wantSup {
			t.Fatalf("superset entry of %v = %v, want %v", wantSlice, hashesOf(gotSup), hashesOf(wantSup))
		}

		_, had := l.entries[gotKey]
		pending := len(l.pending)
		res := ask()
		if want := fresh.Check(all...); res != want {
			t.Fatalf("answer for %v = %v, want %v", all, res, want)
		}
		if len(l.pending) > pending {
			if e := l.pending[pending]; !e.sat {
				indexed = append(indexed, e)
			}
		} else if e := l.entries[gotKey]; !had && e != nil && !e.sat {
			indexed = append(indexed, e) // adopted from shared
		}
		return res
	}
	observe := func(c *smt.Term) {
		l.Observe(c, false)
		path = append(path, c)
	}
	begin := func() {
		l.BeginPath(nil)
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
}

// refSuperset is the superset rule as an ascending scan of hs over unsat
// entries bucketed by their smallest hash, in index order: the first known
// unsat subset of hs, or nil.
func refSuperset(indexed []*entry, hs []uint64) *entry {
	byMin := map[uint64][]*entry{}
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

// hashesOf returns e's hash set, nil for a nil entry.
func hashesOf(e *entry) []uint64 {
	if e == nil {
		return nil
	}
	return e.hs
}
