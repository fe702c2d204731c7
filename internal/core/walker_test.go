package core

import (
	"sort"
	"testing"
)

// branchProgram returns a RunFunc enumerating 2^bits paths over one symbolic
// byte, recording each path's bit pattern via the collect callback.
func branchProgram(bits int, collect func(pattern uint64)) RunFunc {
	return func(e *Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		var pat uint64
		for bit := 0; bit < bits; bit++ {
			if e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1))) {
				pat |= 1 << bit
			}
		}
		if collect != nil {
			collect(pat)
		}
		return nil
	}
}

// TestShardEnumeratesFullTree drives a Shard by hand over a 3-level tree and
// checks it explores exactly the 8 paths with unique canonical signatures.
func TestShardEnumeratesFullTree(t *testing.T) {
	seen := map[uint64]int{}
	s := NewShard(branchProgram(3, func(p uint64) { seen[p]++ }), ShardOptions{})
	s.SeedRoot()
	sigs := map[Sig]bool{}
	paths := 0
	for s.Pending() > 0 {
		rec, ok := s.Step(SearchDFS)
		if !ok {
			break
		}
		paths++
		if rec.Kind != PathCompleted {
			t.Fatalf("path %d kind = %v, want completed", paths, rec.Kind)
		}
		if sigs[rec.Sig] {
			t.Fatalf("duplicate signature %q", rec.Sig)
		}
		sigs[rec.Sig] = true
	}
	if paths != 8 || len(seen) != 8 {
		t.Fatalf("paths=%d distinct=%d, want 8/8", paths, len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("pattern %03b executed %d times", p, n)
		}
	}
}

// TestShardDFSVisitsInSigOrder pins the property the canonical merge relies
// on: a depth-first shard discovers paths in ascending signature order, so
// lexicographic Sig order equals sequential DFS discovery order.
func TestShardDFSVisitsInSigOrder(t *testing.T) {
	s := NewShard(branchProgram(4, nil), ShardOptions{})
	s.SeedRoot()
	var order []Sig
	for s.Pending() > 0 {
		rec, ok := s.Step(SearchDFS)
		if !ok {
			break
		}
		order = append(order, rec.Sig)
	}
	if len(order) != 16 {
		t.Fatalf("paths = %d, want 16", len(order))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("DFS discovery order is not ascending Sig order: %q", order)
	}
}

// TestShardHandoffRoundTrip exports a subtree from one shard, imports it
// into a second shard with its own term context, and checks the union of
// both shards' paths equals a sequential exploration.
func TestShardHandoffRoundTrip(t *testing.T) {
	s1 := NewShard(branchProgram(3, nil), ShardOptions{})
	s1.SeedRoot()
	// Explore two paths breadth-first to widen the frontier.
	for i := 0; i < 2; i++ {
		if _, ok := s1.Step(SearchBFS); !ok {
			t.Fatal("frontier drained during seeding")
		}
	}
	if s1.Pending() == 0 {
		t.Fatal("no frontier to hand off")
	}
	prefix, sig, ok := s1.Handoff()
	if !ok {
		t.Fatal("handoff failed")
	}
	if len(prefix) == 0 || sig == "" {
		t.Fatalf("exported prefix=%v sig=%q", prefix, sig)
	}

	s2 := NewShard(branchProgram(3, nil), ShardOptions{})
	s2.AddPrefix(prefix, sig)

	sigs := map[Sig]bool{}
	collect := func(s *Shard) int {
		n := 0
		for s.Pending() > 0 {
			rec, ok := s.Step(SearchDFS)
			if !ok {
				break
			}
			if sigs[rec.Sig] {
				t.Fatalf("subtrees overlap at signature %q", rec.Sig)
			}
			sigs[rec.Sig] = true
			n++
		}
		return n
	}
	n1 := collect(s1)
	n2 := collect(s2)
	if n1+n2+2 != 8 {
		t.Fatalf("seed(2) + s1(%d) + s2(%d) paths, want 8 total", n1, n2)
	}
	if n2 == 0 {
		t.Fatal("imported subtree explored no paths")
	}
}

// TestShardBoundPrunes checks SetBound discards exactly the paths ordered
// after the bound.
func TestShardBoundPrunes(t *testing.T) {
	// Reference exploration: collect all 8 sigs in DFS (= canonical) order.
	ref := NewShard(branchProgram(3, nil), ShardOptions{})
	ref.SeedRoot()
	var all []Sig
	for ref.Pending() > 0 {
		rec, ok := ref.Step(SearchDFS)
		if !ok {
			break
		}
		all = append(all, rec.Sig)
	}
	if len(all) != 8 {
		t.Fatalf("reference paths = %d, want 8", len(all))
	}

	bound := all[4]
	s := NewShard(branchProgram(3, nil), ShardOptions{})
	s.SeedRoot()
	s.SetBound(bound)
	var got []Sig
	for s.Pending() > 0 {
		rec, ok := s.Step(SearchBFS) // non-canonical order on purpose
		if !ok {
			break
		}
		got = append(got, rec.Sig)
	}
	if len(got) != 5 {
		t.Fatalf("bounded exploration ran %d paths, want 5 (all sig <= bound)", len(got))
	}
	for _, sig := range got {
		if sig > bound {
			t.Fatalf("explored signature %q beyond bound %q", sig, bound)
		}
	}
	if !s.Pruned() {
		t.Fatal("expected pruning to be reported")
	}
}

// TestShardPerPathStatsSplitInvariant checks the per-path statistic deltas a
// record carries do not depend on where the tree was split: the same path
// reached via a hand-off prefix reports the same query/branch counts as it
// does in a monolithic exploration.
func TestShardPerPathStatsSplitInvariant(t *testing.T) {
	mono := NewShard(branchProgram(3, nil), ShardOptions{})
	mono.SeedRoot()
	bysig := map[Sig]PathRecord{}
	for mono.Pending() > 0 {
		rec, ok := mono.Step(SearchDFS)
		if !ok {
			break
		}
		bysig[rec.Sig] = rec
	}

	s1 := NewShard(branchProgram(3, nil), ShardOptions{})
	s1.SeedRoot()
	for i := 0; i < 2; i++ {
		s1.Step(SearchBFS)
	}
	prefix, sig, ok := s1.Handoff()
	if !ok {
		t.Fatal("handoff failed")
	}
	s2 := NewShard(branchProgram(3, nil), ShardOptions{})
	s2.AddPrefix(prefix, sig)
	for s2.Pending() > 0 {
		rec, ok := s2.Step(SearchDFS)
		if !ok {
			break
		}
		want, found := bysig[rec.Sig]
		if !found {
			t.Fatalf("split exploration found unknown path %q", rec.Sig)
		}
		if rec.SolverQueries != want.SolverQueries ||
			rec.Branches != want.Branches ||
			rec.Concretizations != want.Concretizations ||
			rec.Instructions != want.Instructions {
			t.Fatalf("path %q stats differ across splits: got %+v want %+v", rec.Sig, rec, want)
		}
	}
}

// TestWalkerMaterializeSharesPrefixes checks the parent-pointer frontier:
// sibling nodes scheduled from one run share the run's fresh-event slice
// instead of owning O(depth) copies.
func TestWalkerMaterializeSharesPrefixes(t *testing.T) {
	x := NewExplorer(branchProgram(4, nil))
	wk := &walker{}
	wk.addRoot()
	n := wk.pop(SearchDFS, &pathRNG{})
	var st Stats
	eng := newEngine(x.ctx, x.sol, wk.materialize(n), &st, nil)
	if err, abort := runOne(x.run, eng); err != nil || abort != nil {
		t.Fatalf("run failed: %v / %v", err, abort)
	}
	wk.schedule(n, eng.fresh)
	if wk.pending() != 4 {
		t.Fatalf("scheduled %d siblings, want 4", wk.pending())
	}
	for _, child := range wk.frontier {
		if &child.events[0] != &eng.fresh[0] {
			t.Fatal("sibling does not share the run's fresh slice")
		}
	}
	// Deepest sibling materializes to the full run with its last decision
	// flipped.
	deepest := wk.frontier[len(wk.frontier)-1]
	pre := wk.materialize(deepest)
	if len(pre) != 4 {
		t.Fatalf("deepest prefix length = %d, want 4", len(pre))
	}
	for i := 0; i < 3; i++ {
		if pre[i].dir != eng.fresh[i].dir {
			t.Fatalf("prefix event %d direction diverged", i)
		}
	}
	if pre[3].dir == eng.fresh[3].dir {
		t.Fatal("last prefix event was not flipped")
	}
}

// BenchmarkExploreDeepTree measures exploration of a deep tree; with the
// parent-pointer frontier, scheduling a path's siblings is O(depth) pointers
// rather than O(depth²) copied events, which this benchmark's allocation
// figures track.
func BenchmarkExploreDeepTree(b *testing.B) {
	const bits = 8 // 256 paths, depth-8 prefixes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := NewExplorer(func(e *Engine) error {
			ctx := e.Context()
			v := e.MakeSymbolic("v", 8)
			for bit := 0; bit < bits; bit++ {
				e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1)))
			}
			return nil
		})
		rep := x.Explore(Options{})
		if rep.Stats.Paths != 1<<bits {
			b.Fatalf("paths = %d, want %d", rep.Stats.Paths, 1<<bits)
		}
	}
}

// TestWalkerPopOrderAcrossStrategies drives the walker frontier directly:
// DFS pops newest-first, BFS oldest-first, and the random strategy is
// deterministic for a fixed seed.
func TestWalkerPopOrderAcrossStrategies(t *testing.T) {
	build := func() (*walker, *Explorer, []*node) {
		x := NewExplorer(branchProgram(3, nil))
		wk := &walker{}
		wk.addRoot()
		n := wk.pop(SearchDFS, &pathRNG{})
		var st Stats
		eng := newEngine(x.ctx, x.sol, wk.materialize(n), &st, nil)
		if err, abort := runOne(x.run, eng); err != nil || abort != nil {
			t.Fatalf("run failed: %v / %v", err, abort)
		}
		wk.schedule(n, eng.fresh)
		nodes := append([]*node(nil), wk.frontier...)
		return wk, x, nodes
	}

	wk, _, nodes := build()
	if len(nodes) != 3 {
		t.Fatalf("frontier size = %d, want 3", len(nodes))
	}
	// DFS: deepest (most recently scheduled) sibling first.
	if got := wk.pop(SearchDFS, &pathRNG{}); got != nodes[len(nodes)-1] {
		t.Fatal("DFS did not pop the deepest sibling first")
	}

	wk2, _, nodes2 := build()
	if got := wk2.pop(SearchBFS, &pathRNG{}); got != nodes2[0] {
		t.Fatal("BFS did not pop the shallowest sibling first")
	}

	// Random: identical seeds pop identical orders.
	order := func(seed uint64) []int {
		wk, _, _ := build()
		rng := &pathRNG{state: seed}
		var got []int
		for wk.pending() > 0 {
			got = append(got, wk.pop(SearchRandom, rng).depth)
		}
		return got
	}
	a, b := order(42), order(42)
	if len(a) != len(b) {
		t.Fatalf("random pop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random pop order not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

// TestWalkerMaterializeMatchesNaive cross-checks the parent-pointer
// materialization against a naive reconstruction that walks the parent chain.
func TestWalkerMaterializeMatchesNaive(t *testing.T) {
	x := NewExplorer(branchProgram(4, nil))
	wk := &walker{}
	wk.addRoot()
	var st Stats
	for rounds := 0; wk.pending() > 0 && rounds < 6; rounds++ {
		n := wk.pop(SearchBFS, &pathRNG{})
		naive := naiveMaterialize(n)
		got := wk.materialize(n)
		if len(got) != len(naive) {
			t.Fatalf("materialize length %d, naive %d", len(got), len(naive))
		}
		for i := range got {
			if got[i].dir != naive[i].dir || got[i].kind != naive[i].kind {
				t.Fatalf("event %d differs from naive reconstruction", i)
			}
		}
		eng := newEngine(x.ctx, x.sol, got, &st, nil)
		if err, abort := runOne(x.run, eng); err != nil || abort != nil {
			t.Fatalf("run failed: %v / %v", err, abort)
		}
		wk.schedule(n, eng.fresh)
	}
}

// naiveMaterialize reconstructs a node's decision prefix by walking parent
// pointers — the specification the scratch-buffer materialize must match.
func naiveMaterialize(n *node) []event {
	if n == nil {
		return nil
	}
	prefix := append([]event(nil), naiveMaterialize(n.parent)...)
	prefix = append(prefix, n.events[:n.take]...)
	if n.flip {
		prefix[len(prefix)-1].dir = !prefix[len(prefix)-1].dir
	}
	return prefix
}
