package core

import (
	"fmt"
	"slices"
	"testing"

	"symriscv/internal/smt"
)

// TestBitFactForms pins the recogniser behind the known-bit shortcut: the
// three fact forms, with the constant on either side of the equality (the
// term builder orders commutative operands by term ID, so a constant
// interned before the variable lands on the left), at widths 32 and 64,
// and the non-facts it must leave alone.
func TestBitFactForms(t *testing.T) {
	ctx := smt.NewContext()
	early := ctx.BV(32, 0x13) // interned before x: the left operand
	earlyMask := ctx.BV(32, 0x7f)
	x := ctx.Var("x", 32)
	y := ctx.Var("y", 32)
	wide := ctx.Var("wide", 64)
	if l := ctx.Eq(x, early); l.Arg(0) != early {
		t.Fatal("constant interned first is not the left operand")
	}
	if r := ctx.Eq(x, ctx.BV(32, 0x33)); !r.Arg(1).IsConst() {
		t.Fatal("constant interned later is not the right operand")
	}
	cases := []struct {
		name      string
		t         *smt.Term
		x         *smt.Term
		mask, val uint64
	}{
		{"x==c const left", ctx.Eq(x, early), x, 0xffffffff, 0x13},
		{"x==c const right", ctx.Eq(x, ctx.BV(32, 0xdeadbeef)), x, 0xffffffff, 0xdeadbeef},
		{"x==c width 64", ctx.Eq(wide, ctx.BV(64, 1<<63|5)), wide, ^uint64(0), 1<<63 | 5},
		{"(x&m)==c mask left", ctx.Eq(ctx.And(earlyMask, x), ctx.BV(32, 0x73)), x, 0x7f, 0x73},
		{"(x&m)==c mask right", ctx.Eq(ctx.And(x, ctx.BV(32, 0x707f)), early), x, 0x707f, 0x13},
		{"x[h:l]==c", ctx.Eq(ctx.Extract(x, 31, 20), ctx.BV(12, 0x300)), x, 0xfff00000, 0x30000000},
		{"x[h:l]==c low field", ctx.Eq(ctx.Extract(x, 19, 15), ctx.BV(5, 1)), x, 0xf8000, 0x8000},
		{"x[h:l]==c width 64", ctx.Eq(ctx.Extract(wide, 63, 62), ctx.BV(2, 3)), wide, 3 << 62, 3 << 62},
		{"match outside mask", ctx.Eq(ctx.And(x, ctx.BV(32, 0xf0)), ctx.BV(32, 0x0f)), x, 0xf0, 0x0f},
		// Any other term compared with a constant is the x == c form.
		{"(x&y)==c", ctx.Eq(ctx.And(x, y), ctx.BV(32, 4)), ctx.And(x, y), 0xffffffff, 4},
	}
	for _, tc := range cases {
		gx, mask, val, ok := bitFact(tc.t)
		if !ok || gx != tc.x || mask != tc.mask || val != tc.val {
			t.Errorf("%s: bitFact(%v) = %v %#x %#x %v, want %v %#x %#x", tc.name, tc.t, gx, mask, val, ok, tc.x, tc.mask, tc.val)
		}
	}
	for _, c := range []*smt.Term{
		ctx.Eq(x, y),
		ctx.Ne(x, ctx.BV(32, 3)),
		ctx.Ult(x, ctx.BV(32, 3)),
	} {
		if _, _, _, ok := bitFact(c); ok {
			t.Errorf("bitFact(%v) recognised a non-fact", c)
		}
	}
}

// TestKnownBitsDecide: facts accumulate per term across forms; a fact
// decides a condition only when the known bits cover it or contradict it;
// a match with bits outside its mask never holds and records nothing;
// negated facts record nothing; a new path starts with nothing known.
func TestKnownBitsDecide(t *testing.T) {
	ctx := smt.NewContext()
	x := ctx.Var("x", 32)
	y := ctx.Var("y", 32)
	row := func(mask, match uint64) *smt.Term {
		return ctx.Eq(ctx.And(x, ctx.BV(32, mask)), ctx.BV(32, match))
	}
	field := func(hi, lo int, v uint64) *smt.Term {
		return ctx.Eq(ctx.Extract(x, hi, lo), ctx.BV(hi-lo+1, v))
	}
	var m pathMarks
	m.begin()
	decided := func(cond *smt.Term, want, wantOK bool) {
		t.Helper()
		if v, ok := m.decide(cond); v != want || ok != wantOK {
			t.Errorf("decide(%v) = %v %v, want %v %v", cond, v, ok, want, wantOK)
		}
	}
	m.add(row(0x7f, 0x73))                                        // opcode SYSTEM
	m.add(ctx.Ne(y, ctx.BV(32, 0)))                               // negated: no bits
	m.add(ctx.Eq(ctx.And(y, ctx.BV(32, 0xf0)), ctx.BV(32, 0x0f))) // never holds: no bits
	decided(row(0x7f, 0x13), false, true)
	decided(field(6, 0, 0x73), true, true)
	decided(ctx.BNot(field(6, 0, 0x73)), false, true)
	decided(row(0x707f, 0x1073), false, false) // funct3 open
	decided(ctx.Eq(ctx.And(y, ctx.BV(32, 0xff)), ctx.BV(32, 0)), false, false)
	decided(row(0xf0, 0x0f), false, true) // never holds
	decided(ctx.Ult(x, ctx.BV(32, 3)), false, false)

	m.add(field(14, 12, 1)) // funct3 CSRRW
	decided(row(0x707f, 0x1073), true, true)
	decided(row(0x707f, 0x2073), false, true)
	if v, ok := m.value(ctx.Extract(x, 14, 12)); !ok || v != 1 {
		t.Errorf("value(x[14:12]) = %d %v, want 1 true", v, ok)
	}
	if _, ok := m.value(ctx.Extract(x, 31, 20)); ok {
		t.Error("value of an unknown field")
	}
	m.add(field(31, 20, 0x300)) // mstatus
	m.add(field(19, 15, 2))
	m.add(field(11, 7, 5))
	if v, ok := m.value(x); !ok || v != 0x300112f3 { // csrrw x5, mstatus, x2
		t.Errorf("value(x) = %#x %v, want 0x300112f3 true", v, ok)
	}

	m.begin()
	decided(row(0x7f, 0x13), false, false)
	if _, ok := m.value(ctx.Extract(x, 14, 12)); ok {
		t.Error("known bits survived into the next path")
	}
}

// knownBitsProgram forks on an opcode field, then, on the arm that fixes
// it, asks the same question as a decode row, concretizes the field and
// forks on another field so that the arm replays. It logs, per run of the
// arm, the row's answer, the events and queries the row cost, the
// concretized value and the queries it cost.
func knownBitsProgram(log *[]string) RunFunc {
	return func(e *Engine) error {
		ctx := e.Context()
		w := e.MakeSymbolic("w", 32)
		if !e.Branch(ctx.Eq(ctx.Extract(w, 6, 0), ctx.BV(7, 0x13))) {
			return nil
		}
		n, q := e.n, e.stats.SolverQueries
		row := e.Branch(ctx.Eq(ctx.And(w, ctx.BV(32, 0x7f)), ctx.BV(32, 0x13)))
		rowEvents, rowQueries := e.n-n, e.stats.SolverQueries-q
		q = e.stats.SolverQueries
		v := e.Concretize(ctx.Extract(w, 6, 0))
		cq := e.stats.SolverQueries - q
		e.Branch(ctx.Eq(ctx.Extract(w, 31, 31), ctx.BV(1, 1)))
		*log = append(*log, fmt.Sprintf("row=%v events=%d queries=%d value=%#x queries=%d", row, rowEvents, rowQueries, v, cq))
		return nil
	}
}

// TestDecidedBranchReplays: a branch the known bits decide records no
// event and issues no query, and decides the same way when its path
// replays; a concretization of fixed bits records its event without a
// model query. NoBranchOptimizations turns both shortcuts off.
func TestDecidedBranchReplays(t *testing.T) {
	var log []string
	rep := NewExplorer(knownBitsProgram(&log)).Explore(Options{})
	want := []string{
		"row=true events=0 queries=0 value=0x13 queries=0", // fresh
		"row=true events=0 queries=0 value=0x13 queries=0", // replayed to flip the last fork
	}
	if !slices.Equal(log, want) {
		t.Fatalf("default mode logged\n%q\nwant\n%q", log, want)
	}
	// The fresh run decides the row and the concretization, the replay
	// only the row: a replayed concretization takes its recorded value.
	if rep.Stats.Paths != 3 || rep.Stats.Implied != 3 || rep.Stats.Concretizations != 1 {
		t.Fatalf("default mode: %d paths, %d implied, %d concretizations, want 3, 3, 1",
			rep.Stats.Paths, rep.Stats.Implied, rep.Stats.Concretizations)
	}

	log = nil
	abl := NewExplorer(knownBitsProgram(&log)).Explore(Options{NoBranchOptimizations: true})
	want = []string{
		"row=true events=1 queries=1 value=0x13 queries=1",
		"row=true events=1 queries=0 value=0x13 queries=0",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("ablation mode logged\n%q\nwant\n%q", log, want)
	}
	if abl.Stats.Implied != 0 || abl.Stats.Completed != rep.Stats.Completed {
		t.Fatalf("ablation mode: %d implied, %d completed, want 0, %d", abl.Stats.Implied, abl.Stats.Completed, rep.Stats.Completed)
	}
}
