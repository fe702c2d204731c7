package smt

import (
	"encoding/binary"
	"testing"
)

// keyOf rebuilds a term's hash-cons key from its fields, independently of
// the table's own key array.
func keyOf(t *Term) key {
	var ids [3]uint32
	for i := 0; i < int(t.nargs); i++ {
		ids[i] = t.args[i].id
	}
	return key{val: t.val, a0: ids[0], a1: ids[1], a2: ids[2], kw: kw(t.kind, int(t.width))}
}

// hashConsRef checks a Context's interning against a reference map kept
// beside it: one term per key, IDs dense and in creation order.
type hashConsRef struct {
	t    *testing.T
	c    *Context
	ref  map[key]*Term
	seen int // terms already checked
}

// sync checks every term created since the last call.
func (r *hashConsRef) sync() {
	r.t.Helper()
	for ; r.seen < r.c.NumTerms(); r.seen++ {
		id := uint32(r.seen + 1)
		tm := r.c.TermByID(id)
		if tm.ID() != id {
			r.t.Fatalf("term at position %d has ID %d", id, tm.ID())
		}
		if tm.kind == KVar {
			continue
		}
		k := keyOf(tm)
		if prev, ok := r.ref[k]; ok {
			r.t.Fatalf("key %+v interned twice: IDs %d and %d", k, prev.ID(), id)
		}
		if r.c.keys[id-1] != k {
			r.t.Fatalf("term %d stored under key %+v, built from %+v", id, r.c.keys[id-1], k)
		}
		r.ref[k] = tm
	}
}

// result checks a builder's result; want, when non-nil, is the key the
// caller asked the table for.
func (r *hashConsRef) result(got *Term, want *key) {
	r.t.Helper()
	r.sync()
	if got.kind == KVar {
		return
	}
	k := keyOf(got)
	if want != nil && k != *want {
		r.t.Fatalf("asked for key %+v, got term %d with key %+v", *want, got.ID(), k)
	}
	if r.ref[k] != got {
		r.t.Fatalf("key %+v returned term %d, reference holds another", k, got.ID())
	}
}

// relookup asks the table for every reference key again: each must return
// the same pointer and create nothing.
func (r *hashConsRef) relookup() {
	r.t.Helper()
	n := r.c.NumTerms()
	for k, tm := range r.ref {
		if got := r.c.mk(k, tm.args[:tm.nargs]); got != tm {
			r.t.Fatalf("relookup of key %+v: got term %d, want %d", k, got.ID(), tm.ID())
		}
	}
	if r.c.NumTerms() != n {
		r.t.Fatalf("relookup created %d terms", r.c.NumTerms()-n)
	}
}

var fuzzWidths = [...]int{1, 8, 32}

// FuzzHashCons decodes bytes into builder calls over 2-4 variables of widths
// 1/8/32 — public builders, raw mk0-mk3 calls of every shape, and bursts of
// thousands of terms — and checks the table against a reference map after
// every call and every growth.
func FuzzHashCons(f *testing.F) {
	// Header: variable count, then one width selector per variable. Each
	// op: a width selector, an opcode, then its operand bytes.
	f.Add([]byte{0, 1, 2, 1, 1, 0, 1, 1, 2, 0, 5, 3, 2, 6, 1, 2, 7, 2, 1, 9, 0, 1, 2})
	f.Add([]byte{
		2, 0, 1, 2, 1, 1, 8, 0, 2, 1, 9, 1, 3, 4, 0, 10, 0, 3, 4, 0, 11, 5,
		2, 12, 0, 1, 200, 2, 12, 1, 3, 8, 1, 5, 0, 12, 2, 4, 8, 0, 3, 4,
		1, 12, 3, 20, 32, 0, 2, 3, 4, 1, 12, 3, 20, 32, 0, 2, 3, 5,
	})
	// Four bursts: over 12k terms, so the table grows four times.
	f.Add([]byte{0, 2, 2, 0, 13, 1, 0, 0, 0, 13, 2, 0, 0, 0, 13, 3, 0, 0, 0, 13, 4, 0, 0, 2, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		c := NewContext()
		r := &hashConsRef{t: t, c: c, ref: make(map[key]*Term)}
		bvs := map[int][]*Term{}
		var bools, raw []*Term
		for i, n := 0, 2+int(next()%3); i < n; i++ {
			w := fuzzWidths[next()%3]
			v := c.Var(string(rune('a'+i)), w)
			bvs[w] = append(bvs[w], v)
			raw = append(raw, v)
		}
		pick := func(ts []*Term) *Term { return ts[int(next())%len(ts)] }
		add := func(tm *Term) {
			if tm.width == 0 {
				bools = append(bools, tm)
			} else {
				bvs[int(tm.width)] = append(bvs[int(tm.width)], tm)
			}
			raw = append(raw, tm)
		}
		add(c.True())
		add(c.Bool(false))
		for _, w := range fuzzWidths {
			add(c.BV(w, 0)) // no width's pool is empty
		}
		rawKey := func(nargs int) (key, []*Term) {
			kind := KConst + Kind(next())%(KBNot-KConst+1)
			if kind == KVar {
				kind++ // variables never enter the table
			}
			k := key{kw: kw(kind, int(next())), val: uint64(next() % 4)}
			args := make([]*Term, nargs)
			var ids [3]uint32
			for i := range args {
				args[i] = pick(raw)
				ids[i] = args[i].id
			}
			k.a0, k.a1, k.a2 = ids[0], ids[1], ids[2]
			return k, args
		}
		slots := len(c.slots)
		for len(data) > 0 {
			var got *Term
			var want *key
			w := fuzzWidths[next()%3]
			switch op := next() % 14; op {
			case 0:
				got = c.BV(w, uint64(next()))
			case 1, 2, 3, 4:
				got = [...]func(a, b *Term) *Term{c.Add, c.Sub, c.And, c.Shl}[op-1](pick(bvs[w]), pick(bvs[w]))
			case 5:
				got = c.Not(pick(bvs[w]))
			case 6:
				if w == 1 {
					continue
				}
				got = c.Extract(pick(bvs[w]), int(next())%w, 0)
			case 7:
				if w == 32 {
					continue
				}
				got = c.SExt(pick(bvs[w]), 32)
			case 8:
				got = c.Ite(pick(bools), pick(bvs[w]), pick(bvs[w]))
			case 9:
				got = [...]func(a, b *Term) *Term{c.Eq, c.Ult, c.Sle}[next()%3](pick(bvs[w]), pick(bvs[w]))
			case 10:
				got = [...]func(a, b *Term) *Term{c.BAnd, c.BOr}[next()%2](pick(bools), pick(bools))
			case 11:
				got = c.BNot(pick(bools))
			case 12:
				// Raw table calls of every shape, bypassing the folders.
				nargs := int(next() % 4)
				k, args := rawKey(nargs)
				switch nargs {
				case 0:
					got = c.mk0(Kind(k.kw>>8), int(uint8(k.kw)), k.val)
				case 1:
					got = c.mk1(Kind(k.kw>>8), int(uint8(k.kw)), k.val, args[0])
				case 2:
					k.val = 0
					got = c.mk2(Kind(k.kw>>8), int(uint8(k.kw)), args[0], args[1])
				case 3:
					k.val = 0
					got = c.mk3(Kind(k.kw>>8), int(uint8(k.kw)), args[0], args[1], args[2])
				}
				want = &k
				r.result(got, want)
				raw = append(raw, got)
				continue
			case 13:
				// A burst of 2048 constants, their sums and raw ites that
				// differ in the last operand only: the table grows, every
				// growth is checked, and long probe chains mix keys that
				// share all fields but a2.
				var buf [8]byte
				buf[0], buf[1] = next(), next()
				base := binary.LittleEndian.Uint64(buf[:]) << 16
				x, cond := pick(bvs[32]), pick(bools)
				for i := uint64(0); i < 2048; i++ {
					k := c.BV(32, base+i)
					r.result(k, nil)
					if i%2 == 0 {
						r.result(c.Add(x, k), nil)
					}
					if i%4 == 1 {
						want := key{kw: kw(KIte, 32), a0: cond.id, a1: x.id, a2: k.id}
						r.result(c.mk3(KIte, 32, cond, x, k), &want)
					}
					if len(c.slots) != slots {
						slots = len(c.slots)
						r.relookup()
					}
				}
				continue
			}
			r.result(got, want)
			add(got)
			if len(c.slots) != slots {
				slots = len(c.slots)
				r.relookup()
			}
		}
		r.relookup()
	})
}

// TestProbeChainsCollideAndWrap fills a small table with keys that all hash
// to its last slot: the chain wraps to the front, every key stays reachable
// behind the others, and growth keeps every pointer.
func TestProbeChainsCollideAndWrap(t *testing.T) {
	c := &Context{slots: make([]uint32, 8)}
	var ks []key
	for v := uint64(0); len(ks) < 6; v++ {
		if k := (key{kw: kw(KConst, 8), val: v}); k.hash()&7 == 7 {
			ks = append(ks, k)
		}
	}
	var ts []*Term
	for _, k := range ks[:5] {
		ts = append(ts, c.mk(k, nil))
	}
	for i, slot := range []int{7, 0, 1, 2, 3} {
		if c.slots[slot] != ts[i].ID() {
			t.Fatalf("key %d in slot holding ID %d, want slot %d (slots %v)", i, ts[i].ID(), slot, c.slots)
		}
	}
	for i, k := range ks[:5] {
		if got := c.mk(k, nil); got != ts[i] {
			t.Fatalf("lookup of key %d returned term %d, want %d", i, got.ID(), ts[i].ID())
		}
	}
	if c.NumTerms() != 5 || len(c.slots) != 8 {
		t.Fatalf("lookups created terms or grew the table: %d terms, %d slots", c.NumTerms(), len(c.slots))
	}
	// The sixth key walks the whole chain and lands at slot 4; the seventh
	// term passes ¾ load and doubles the table.
	ts = append(ts, c.mk(ks[5], nil))
	if c.slots[4] != ts[5].ID() {
		t.Fatalf("sixth key not at the end of the chain: slots %v", c.slots)
	}
	c.mk(key{kw: kw(KConst, 16)}, nil)
	if len(c.slots) != 16 {
		t.Fatalf("table has %d slots after 7 terms, want 16", len(c.slots))
	}
	for i, k := range ks {
		if got := c.mk(k, nil); got != ts[i] {
			t.Fatalf("after growth key %d returned term %d, want %d", i, got.ID(), ts[i].ID())
		}
	}
	if c.NumTerms() != 7 {
		t.Fatalf("%d terms after growth lookups, want 7", c.NumTerms())
	}
}

// TestHashConsHitAllocs: interning a term that already exists allocates
// nothing.
func TestHashConsHitAllocs(t *testing.T) {
	c := NewContext()
	a, b := c.Var("a", 32), c.Var("b", 32)
	c.Add(a, b)
	if n := testing.AllocsPerRun(100, func() { c.Add(a, b) }); n != 0 {
		t.Fatalf("hash-cons hit allocates %v times, want 0", n)
	}
}

// BenchmarkIntern times one table probe through a public builder: a hit
// finds an existing term, a miss creates a constant in a context of at most
// 4096 terms.
func BenchmarkIntern(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := NewContext()
		x, y := c.Var("x", 32), c.Var("y", 32)
		c.Add(x, y)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(x, y)
		}
	})
	b.Run("miss", func(b *testing.B) {
		var c *Context
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%4096 == 0 {
				c = NewContext() // a tree's worth of terms, growth included
			}
			c.BV(32, uint64(i))
		}
	})
}
