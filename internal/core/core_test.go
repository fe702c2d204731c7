package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"symriscv/internal/querycache"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// newEngine returns a fresh engine for one path, as an Explorer resets its
// own.
func newEngine(ctx *smt.Context, sol *solver.Solver, prefix []event, imported querycache.Model, stats *Stats, qc *querycache.Local, onPath *pathMarks) *Engine {
	e := new(Engine)
	e.reset(ctx, sol, prefix, imported, stats, qc, onPath)
	return e
}

func TestTwoPathBranch(t *testing.T) {
	errLow := errors.New("x is low")
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		xv := e.MakeSymbolic("x", 8)
		if e.Branch(ctx.Ult(xv, ctx.BV(8, 10))) {
			return errLow
		}
		return nil
	})
	rep := x.Explore(Options{})
	if rep.Stats.Paths != 2 {
		t.Fatalf("paths = %d, want 2", rep.Stats.Paths)
	}
	if rep.Stats.Completed != 1 || len(rep.Findings) != 1 {
		t.Fatalf("completed=%d findings=%d", rep.Stats.Completed, len(rep.Findings))
	}
	if !rep.Exhausted {
		t.Fatal("expected exhausted exploration")
	}
	f := rep.Findings[0]
	if !errors.Is(f.Err, errLow) {
		t.Fatalf("finding error = %v", f.Err)
	}
	if v, ok := f.Inputs["x"]; !ok || v >= 10 {
		t.Fatalf("witness x = %v (ok=%v), want < 10", v, ok)
	}
}

func TestIndependentBranchesEnumerateAllPaths(t *testing.T) {
	seen := map[string]int{}
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		var sig string
		for bit := 0; bit < 3; bit++ {
			if e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1))) {
				sig += "1"
			} else {
				sig += "0"
			}
		}
		seen[sig]++
		return nil
	})
	rep := x.Explore(Options{GenerateTests: true})
	if rep.Stats.Paths != 8 || rep.Stats.Completed != 8 {
		t.Fatalf("paths=%d completed=%d, want 8/8", rep.Stats.Paths, rep.Stats.Completed)
	}
	if len(seen) != 8 {
		t.Fatalf("distinct signatures = %d, want 8", len(seen))
	}
	for sig, n := range seen {
		if n != 1 {
			t.Fatalf("signature %s executed %d times", sig, n)
		}
	}
	if len(rep.TestVectors) != 8 {
		t.Fatalf("test vectors = %d, want 8", len(rep.TestVectors))
	}
	// Each test vector must reproduce a distinct low-3-bit pattern.
	pats := map[uint64]bool{}
	for _, tv := range rep.TestVectors {
		pats[tv.Inputs["v"]&7] = true
	}
	if len(pats) != 8 {
		t.Fatalf("test vectors cover %d patterns, want 8", len(pats))
	}
}

func TestAssumePrunes(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		e.Assume(ctx.Eq(v, ctx.BV(8, 5)))
		if e.Branch(ctx.Ult(v, ctx.BV(8, 10))) {
			return nil
		}
		return errors.New("unreachable arm executed")
	})
	rep := x.Explore(Options{})
	if len(rep.Findings) != 0 {
		t.Fatalf("unexpected findings: %v", rep.Findings)
	}
	if rep.Stats.Completed != 1 {
		t.Fatalf("completed = %d, want 1", rep.Stats.Completed)
	}
	// The eager sibling check must prove the other direction infeasible at
	// branch time, so no dead path is ever scheduled.
	if rep.Stats.Paths != 1 || rep.Stats.Infeasible != 0 {
		t.Fatalf("paths=%d infeasible=%d, want 1/0", rep.Stats.Paths, rep.Stats.Infeasible)
	}
}

func TestAssumeFalseAbortsPath(t *testing.T) {
	ran := 0
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		ran++
		e.Assume(ctx.Bool(false))
		return errors.New("must not reach")
	})
	rep := x.Explore(Options{})
	if ran != 1 || len(rep.Findings) != 0 || rep.Stats.Infeasible != 1 {
		t.Fatalf("ran=%d findings=%d infeasible=%d", ran, len(rep.Findings), rep.Stats.Infeasible)
	}
}

func TestConcretizeConsistentWithConstraints(t *testing.T) {
	var got uint64
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		addr := e.MakeSymbolic("addr", 32)
		e.Assume(ctx.Ult(addr, ctx.BV(32, 0x100)))
		e.Assume(ctx.Uge(addr, ctx.BV(32, 0xf0)))
		got = e.Concretize(addr)
		return nil
	})
	rep := x.Explore(Options{})
	if rep.Stats.Completed != 1 {
		t.Fatalf("completed = %d", rep.Stats.Completed)
	}
	if got < 0xf0 || got >= 0x100 {
		t.Fatalf("concretized value %#x outside constraints", got)
	}
}

func TestConcretizeThenBranchReplays(t *testing.T) {
	// A branch after a concretization forces a replay through the recorded
	// concretization; the value must be identical on both paths.
	vals := map[uint64]int{}
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		addr := e.MakeSymbolic("a", 16)
		data := e.MakeSymbolic("d", 16)
		e.Assume(ctx.Ult(addr, ctx.BV(16, 4)))
		v := e.Concretize(addr)
		vals[v]++
		if e.Branch(ctx.Ult(data, ctx.BV(16, 100))) {
			return nil
		}
		return nil
	})
	rep := x.Explore(Options{})
	if rep.Stats.Completed != 2 {
		t.Fatalf("completed = %d, want 2", rep.Stats.Completed)
	}
	if len(vals) != 1 {
		t.Fatalf("concretization diverged across replays: %v", vals)
	}
	for v, n := range vals {
		if n != 2 {
			t.Fatalf("value %d seen %d times, want 2", v, n)
		}
	}
}

func TestConstantBranchRecordsNothing(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		if !e.Branch(ctx.True()) || e.Branch(ctx.Bool(false)) {
			return errors.New("constant branch misrouted")
		}
		return nil
	})
	rep := x.Explore(Options{})
	if rep.Stats.Paths != 1 || rep.Stats.Completed != 1 {
		t.Fatalf("paths=%d completed=%d, want 1/1", rep.Stats.Paths, rep.Stats.Completed)
	}
	if rep.Stats.Branches != 0 {
		t.Fatalf("symbolic branches = %d, want 0", rep.Stats.Branches)
	}
}

func TestMaxPathsBudget(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		for bit := 0; bit < 6; bit++ {
			e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1)))
		}
		return nil
	})
	rep := x.Explore(Options{MaxPaths: 5})
	if rep.Stats.Paths != 5 {
		t.Fatalf("paths = %d, want 5", rep.Stats.Paths)
	}
	if rep.Exhausted {
		t.Fatal("must not report exhaustion under a path budget")
	}
}

func TestStopOnFirstFinding(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		if e.Branch(ctx.Eq(v, ctx.BV(8, 0x42))) {
			return fmt.Errorf("bug for 0x42")
		}
		if e.Branch(ctx.Eq(v, ctx.BV(8, 0x43))) {
			return fmt.Errorf("bug for 0x43")
		}
		return nil
	})
	rep := x.Explore(Options{StopOnFirstFinding: true})
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
}

func TestBFSAndDFSCoverSameTree(t *testing.T) {
	prog := func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		if e.Branch(ctx.Ult(v, ctx.BV(8, 64))) {
			e.Branch(ctx.Ult(v, ctx.BV(8, 32)))
		} else {
			e.Branch(ctx.Ult(v, ctx.BV(8, 128)))
			e.Branch(ctx.Eq(v, ctx.BV(8, 200)))
		}
		return nil
	}
	dfs := NewExplorer(prog).Explore(Options{})
	bfs := NewExplorer(prog).Explore(Options{Search: SearchBFS})
	if dfs.Stats.Completed != bfs.Stats.Completed || dfs.Stats.Paths != bfs.Stats.Paths {
		t.Fatalf("dfs %v != bfs %v", dfs.Stats, bfs.Stats)
	}
	if !dfs.Exhausted || !bfs.Exhausted {
		t.Fatal("both strategies must exhaust the tree")
	}
}

func TestWitnessSatisfiesPathAndCondition(t *testing.T) {
	// The classic KLEE-tutorial-style sign function, cross-checked: the
	// witness for the "negative" finding must actually be negative.
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("n", 32)
		if e.Branch(ctx.Slt(v, ctx.BV(32, 0))) {
			if env, ok := e.FindWitness(ctx.Slt(v, ctx.BV(32, 0xfffffff0))); ok {
				return mismatchErr{env}
			}
			return nil
		}
		return nil
	})
	rep := x.Explore(Options{})
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
	v := rep.Findings[0].Inputs["n"]
	if int32(v) >= 0 || v >= 0xfffffff0 {
		t.Fatalf("witness %#x does not satisfy path+condition", v)
	}
}

type mismatchErr struct{ env smt.MapEnv }

func (m mismatchErr) Error() string       { return "mismatch" }
func (m mismatchErr) Witness() smt.MapEnv { return m.env }

func TestErrStopExploration(t *testing.T) {
	calls := 0
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		calls++
		e.Branch(ctx.Ult(v, ctx.BV(8, 10)))
		return ErrStopExploration
	})
	rep := x.Explore(Options{})
	if calls != 1 || len(rep.Findings) != 0 {
		t.Fatalf("calls=%d findings=%d", calls, len(rep.Findings))
	}
}

func TestCountInstructionAggregates(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		e.CountInstruction(3)
		e.Branch(ctx.Ult(v, ctx.BV(8, 10)))
		e.CountInstruction(2)
		return nil
	})
	rep := x.Explore(Options{})
	// Two paths, 5 instructions each.
	if rep.Stats.Instructions != 10 {
		t.Fatalf("instructions = %d, want 10", rep.Stats.Instructions)
	}
}

func TestRandomSearchCoversTreeDeterministically(t *testing.T) {
	prog := func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		for bit := 0; bit < 4; bit++ {
			e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1)))
		}
		return nil
	}
	a := NewExplorer(prog).Explore(Options{Search: SearchRandom, Seed: 5})
	b := NewExplorer(prog).Explore(Options{Search: SearchRandom, Seed: 5})
	if a.Stats.Completed != 16 || !a.Exhausted {
		t.Fatalf("random search missed paths: %v", a.Stats)
	}
	if a.Stats.Paths != b.Stats.Paths {
		t.Fatal("random search not deterministic under a fixed seed")
	}
	dfs := NewExplorer(prog).Explore(Options{})
	if dfs.Stats.Completed != a.Stats.Completed {
		t.Fatal("strategies disagree on tree size")
	}
}

func TestMaxTimeBudget(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 32)
		for bit := 0; bit < 30; bit++ {
			e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1)))
		}
		return nil
	})
	rep := x.Explore(Options{MaxTime: 50 * time.Millisecond})
	if rep.Exhausted {
		t.Fatal("a 2^30 tree cannot be exhausted in 50ms")
	}
	if rep.Stats.Elapsed > 5*time.Second {
		t.Fatalf("budget ignored: ran %v", rep.Stats.Elapsed)
	}
}

func TestReplayDivergencePanics(t *testing.T) {
	// A program whose branch conditions depend on mutable external state is
	// not deterministic; the engine must detect the divergence on replay.
	call := 0
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		call++
		bound := uint64(10 + call) // changes between replays: illegal
		e.Branch(ctx.Ult(v, ctx.BV(8, bound)))
		e.Branch(ctx.Ult(v, ctx.BV(8, 5)))
		return nil
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected replay-divergence panic")
		}
		if !strings.Contains(fmt.Sprint(r), "divergence") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	x.Explore(Options{})
}

func TestAbortLimitReachedCountsPartial(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		e.MakeSymbolic("v", 8)
		e.AbortLimitReached("test limit")
		return nil
	})
	rep := x.Explore(Options{})
	if rep.Stats.Partial != 1 || rep.Stats.Completed != 0 {
		t.Fatalf("limit abort: %v", rep.Stats)
	}
}

func TestPathConstraintsAccumulate(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		e.Assume(ctx.Ult(v, ctx.BV(8, 100)))
		e.Branch(ctx.Ult(v, ctx.BV(8, 50)))
		if n := len(e.PathConstraints()); n != 2 {
			t.Errorf("path constraints = %d, want 2", n)
		}
		return nil
	})
	x.Explore(Options{MaxPaths: 1})
}

func TestSymbolicInputsDeduplicated(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		a := e.MakeSymbolic("dup", 8)
		b := e.MakeSymbolic("dup", 8)
		if a != b {
			t.Error("same name must return the same variable")
		}
		if len(e.SymbolicInputs()) != 1 {
			t.Errorf("inputs = %d, want 1", len(e.SymbolicInputs()))
		}
		return nil
	})
	x.Explore(Options{MaxPaths: 1})
}

func TestBranchOnBVPanics(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		defer func() {
			if recover() == nil {
				t.Error("Branch on a bit-vector should panic")
			}
		}()
		e.Branch(e.Context().BV(8, 1))
		return nil
	})
	x.Explore(Options{MaxPaths: 1})
}

func TestConcretizeBoolPanics(t *testing.T) {
	x := NewExplorer(func(e *Engine) error {
		defer func() {
			if recover() == nil {
				t.Error("Concretize on a Boolean should panic")
			}
		}()
		e.Concretize(e.Context().True())
		return nil
	})
	x.Explore(Options{MaxPaths: 1})
}

func TestAbortReasonStrings(t *testing.T) {
	for r, want := range map[AbortReason]string{
		AbortNone: "none", AbortInfeasible: "infeasible", AbortLimit: "limit",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	for s, want := range map[SearchStrategy]string{
		SearchDFS: "dfs", SearchBFS: "bfs", SearchRandom: "random-path",
	} {
		if s.String() != want {
			t.Errorf("SearchStrategy.String() = %q, want %q", s.String(), want)
		}
	}
}

// TestProgressCallback pins what a snapshot means: it is taken after every
// ProgressEvery-th path has been added to the report, so it counts that
// path, in Paths and in its outcome counter. parexplore's
// TestProgressCallbackFires checks the parallel driver against the same
// meaning.
func TestProgressCallback(t *testing.T) {
	var snaps []Stats
	x := NewExplorer(func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 16)
		for bit := 0; bit < 9; bit++ {
			e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1)))
		}
		return nil
	})
	rep := x.Explore(Options{Progress: func(s Stats) { snaps = append(snaps, s) }})
	if rep.Stats.Paths != 2*ProgressEvery {
		t.Fatalf("paths = %d, want %d", rep.Stats.Paths, 2*ProgressEvery)
	}
	if len(snaps) != 2 {
		t.Fatalf("progress callbacks = %d, want 2", len(snaps))
	}
	for i, s := range snaps {
		if want := ProgressEvery * (i + 1); s.Paths != want || s.Completed != s.Paths {
			t.Fatalf("snapshot %d: paths=%d completed=%d, want %d/%d", i, s.Paths, s.Completed, want, want)
		}
	}
	if last := snaps[1]; last.SolverQueries != rep.Stats.SolverQueries || last.Branches != rep.Stats.Branches {
		t.Fatalf("last snapshot %v, report %v: the last path is not counted", last, rep.Stats)
	}
}

// TestExploreAllocs bounds what a warm sequential exploration allocates:
// 32 paths of a branch program, with the term context, the SAT encoding and
// the query cache already built by an earlier run. What remains is the
// report and the walker's frontier (one node per scheduled sibling and one
// copy of each path's fresh events). A Sig, a per-path record or Stats on
// the heap, or a second Engine per path adds at least 32.
func TestExploreAllocs(t *testing.T) {
	x := NewExplorer(branchProgram(5, nil))
	x.Explore(Options{})
	x.Explore(Options{})
	const limit = 54
	if got := testing.AllocsPerRun(20, func() { x.Explore(Options{}) }); got > limit {
		t.Fatalf("warm 32-path exploration allocates %v objects, want <= %d", got, limit)
	}
}

// TestAddPCDeduplicates pins the assumption-dedup satellite: assuming the
// same term twice adds one path constraint and one cache observation, leaving
// the conjunction unchanged.
func TestAddPCDeduplicates(t *testing.T) {
	x := NewExplorer(nil)
	var st Stats
	eng := newEngine(x.ctx, x.sol, nil, nil, &st, nil, &pathMarks{})
	ctx := eng.Context()
	v := eng.MakeSymbolic("v", 8)
	c := ctx.Eq(v, ctx.BV(8, 3))
	eng.Assume(c)
	eng.Assume(c)
	if got := len(eng.onPath.terms); got != 1 {
		t.Fatalf("pcs length = %d after duplicate Assume, want 1", got)
	}
	eng.Assume(ctx.Ne(v, ctx.BV(8, 9)))
	if got := len(eng.onPath.terms); got != 2 {
		t.Fatalf("pcs length = %d, want 2", got)
	}
}

// TestPathMarksResetPerPath: the dense path-membership and known-bit
// tables an Explorer reuses across paths start every path empty — also
// after the epoch wraps around — and the membership table covers terms
// interned after it last grew.
func TestPathMarksResetPerPath(t *testing.T) {
	x := NewExplorer(nil)
	var st Stats
	marks := &pathMarks{}
	eng := newEngine(x.ctx, x.sol, nil, nil, &st, nil, marks)
	ctx := eng.Context()
	v := eng.MakeSymbolic("v", 8)
	c := ctx.Ult(v, ctx.BV(8, 100))
	e := ctx.Ne(v, ctx.BV(8, 7))                    // assumed on path 1 only
	k := ctx.Eq(ctx.Extract(v, 3, 0), ctx.BV(4, 5)) // fixes bits of v on path 1
	eng.Assume(c)
	eng.Assume(e)
	eng.Assume(k)
	if !marks.has(c) || !marks.has(e) {
		t.Fatal("assumed term not on path 1")
	}
	if v, ok := marks.decide(k); !v || !ok {
		t.Fatal("path 1's known bits do not decide its own fact")
	}

	// Path 2 shares the table: c is not on it until assumed again.
	eng = newEngine(x.ctx, x.sol, nil, nil, &st, nil, marks)
	if marks.has(c) {
		t.Fatal("term from path 1 is on path 2")
	}
	eng.Assume(c)
	if len(eng.onPath.terms) != 1 {
		t.Fatalf("pcs length = %d after assuming c on path 2, want 1", len(eng.onPath.terms))
	}

	// A term interned mid-path lies beyond the table until added.
	d := ctx.Ult(ctx.BV(8, 3), v)
	if int(d.ID()) <= len(marks.mark) {
		t.Fatalf("new term ID %d inside the table (%d)", d.ID(), len(marks.mark))
	}
	if marks.has(d) {
		t.Fatal("fresh term beyond the table is on path")
	}
	eng.Assume(d)
	if !marks.has(d) || len(eng.onPath.terms) != 2 {
		t.Fatalf("fresh term not added: has=%v, pcs=%d", marks.has(d), len(eng.onPath.terms))
	}

	// Epoch wrap-around: e carries path 1's stamp, epoch 1, and the epoch
	// after the wrap is 1 again, so the table must have been cleared.
	marks.epoch = math.MaxUint32
	eng = newEngine(x.ctx, x.sol, nil, nil, &st, nil, marks)
	if marks.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", marks.epoch)
	}
	if marks.has(c) || marks.has(d) || marks.has(e) {
		t.Fatal("a term stamped before the wrap is on path after it")
	}
	if _, ok := marks.decide(k); ok {
		t.Fatal("bits known before the wrap decide a branch after it")
	}
	eng.Assume(e)
	if len(eng.onPath.terms) != 1 {
		t.Fatalf("pcs length = %d after the wrap, want 1", len(eng.onPath.terms))
	}
}

// TestPathModelInputsExact: test vectors and PathModel-backed findings carry
// exactly the inputs registered on their path — unconstrained ones read 0,
// variables made outside MakeSymbolic never appear — and the Explorer and a
// a shard report the same input maps.
func TestPathModelInputsExact(t *testing.T) {
	prog := func(e *Engine) error {
		ctx := e.Context()
		a := e.MakeSymbolic("a", 8)
		e.MakeSymbolic("b", 8) // never constrained
		if e.Branch(ctx.Ult(a, ctx.BV(8, 10))) {
			return fmt.Errorf("low")
		}
		if e.Branch(ctx.Eq(a, ctx.BV(8, 200))) {
			e.MakeSymbolic("c", 8)
			return nil
		}
		e.Branch(ctx.Ult(ctx.Var("hidden", 8), a))
		return nil
	}
	check := func(who string, in smt.MapEnv) string {
		t.Helper()
		a := in["a"]
		want := []string{"a", "b"}
		if a == 200 {
			want = append(want, "c")
		}
		var keys []string
		for k := range in {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if fmt.Sprint(keys) != fmt.Sprint(want) || in["b"] != 0 || in["c"] != 0 {
			t.Fatalf("%s: inputs %v, want exactly %v with b = c = 0", who, in, want)
		}
		return fmt.Sprint(in)
	}

	rep := NewExplorer(prog).Explore(Options{GenerateTests: true})
	var got []string
	for _, f := range rep.Findings {
		if a := f.Inputs["a"]; a >= 10 {
			t.Fatalf("finding input a = %d is not below 10", a)
		}
		got = append(got, "finding "+check("explorer finding", f.Inputs))
	}
	for _, tv := range rep.TestVectors {
		got = append(got, "test "+check("explorer test", tv.Inputs))
	}
	if len(rep.Findings) != 1 || len(rep.TestVectors) != 3 {
		t.Fatalf("%d findings and %d test vectors, want 1 and 3", len(rep.Findings), len(rep.TestVectors))
	}

	s := NewShard(prog, Options{GenerateTests: true}, 0)
	s.SeedRoot()
	var shard []string
	for {
		rec, ok := s.Step(SearchDFS)
		if !ok {
			break
		}
		switch {
		case rec.Kind == PathFinding:
			shard = append(shard, "finding "+check("shard finding", rec.Inputs))
		case rec.Inputs != nil:
			shard = append(shard, "test "+check("shard test", rec.Inputs))
		}
	}
	sort.Strings(got)
	sort.Strings(shard)
	if fmt.Sprint(got) != fmt.Sprint(shard) {
		t.Fatalf("explorer inputs %v, shard inputs %v", got, shard)
	}
}
