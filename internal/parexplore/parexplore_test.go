package parexplore_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/harness"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/obs"
	"symriscv/internal/parexplore"
	"symriscv/internal/rvfi"
)

// findingTree enumerates 2^bits paths over one symbolic byte and reports a
// distinct finding for every third bit pattern, so finding sets can be
// compared across explorations.
func findingTree(bits int) core.RunFunc {
	return func(e *core.Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		var pat uint64
		for bit := 0; bit < bits; bit++ {
			if e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1))) {
				pat |= 1 << bit
			}
		}
		e.CountInstruction(uint64(bits))
		if pat%3 == 0 {
			return fmt.Errorf("bad pattern %d", pat)
		}
		return nil
	}
}

func findingSet(t *testing.T, rep *core.Report) map[string]int {
	t.Helper()
	set := map[string]int{}
	for _, f := range rep.Findings {
		set[f.Err.Error()]++
	}
	return set
}

func sameStats(a, b core.Stats) bool {
	return a.Paths == b.Paths && a.Completed == b.Completed &&
		a.Partial == b.Partial && a.Infeasible == b.Infeasible &&
		a.Instructions == b.Instructions && a.Cycles == b.Cycles &&
		a.Branches == b.Branches && a.Concretizations == b.Concretizations &&
		a.Implied == b.Implied && a.SolverQueries == b.SolverQueries
}

// TestEquivalenceSweep checks the tentpole property over the synthetic tree:
// for every worker count and search strategy, the parallel exploration of
// the full tree reports the same statistic totals, finding set and test
// vector count as the sequential explorer.
func TestEquivalenceSweep(t *testing.T) {
	const bits = 5
	searches := []core.SearchStrategy{core.SearchDFS, core.SearchBFS, core.SearchRandom}
	for _, search := range searches {
		seqOpts := core.Options{Search: search, Seed: 7, GenerateTests: true}
		seq := core.NewExplorer(findingTree(bits)).Explore(seqOpts)
		if seq.Stats.Paths != 1<<bits {
			t.Fatalf("%v: sequential paths = %d, want %d", search, seq.Stats.Paths, 1<<bits)
		}
		wantFindings := findingSet(t, &core.Report{Findings: seq.Findings})
		for _, workers := range []int{1, 2, 4} {
			par := parexplore.Explore(findingTree(bits), seqOpts, workers)
			if !sameStats(seq.Stats, par.Stats) {
				t.Errorf("%v/%d workers: stats diverge\nseq: %+v\npar: %+v",
					search, workers, seq.Stats, par.Stats)
			}
			got := findingSet(t, par)
			if len(got) != len(wantFindings) {
				t.Errorf("%v/%d workers: findings %v, want %v", search, workers, got, wantFindings)
			}
			for k := range wantFindings {
				if got[k] != wantFindings[k] {
					t.Errorf("%v/%d workers: finding %q count %d, want %d",
						search, workers, k, got[k], wantFindings[k])
				}
			}
			if len(par.TestVectors) != len(seq.TestVectors) {
				t.Errorf("%v/%d workers: %d test vectors, want %d",
					search, workers, len(par.TestVectors), len(seq.TestVectors))
			}
			if par.Exhausted != seq.Exhausted {
				t.Errorf("%v/%d workers: exhausted=%v, want %v",
					search, workers, par.Exhausted, seq.Exhausted)
			}
		}
	}
}

// TestWorkerCountByteIdentical checks the stronger per-field claim: reports
// at different worker counts are identical including canonical path indices
// (everything except wall-clock and per-context size fields).
func TestWorkerCountByteIdentical(t *testing.T) {
	opts := core.Options{Search: core.SearchDFS, GenerateTests: true}
	ref := parexplore.Explore(findingTree(6), opts, 1)
	for _, workers := range []int{2, 4} {
		rep := parexplore.Explore(findingTree(6), opts, workers)
		if !sameStats(ref.Stats, rep.Stats) {
			t.Fatalf("%d workers: stats diverge: %+v vs %+v", workers, ref.Stats, rep.Stats)
		}
		if len(rep.Findings) != len(ref.Findings) {
			t.Fatalf("%d workers: %d findings, want %d", workers, len(rep.Findings), len(ref.Findings))
		}
		for i := range ref.Findings {
			if rep.Findings[i].Err.Error() != ref.Findings[i].Err.Error() ||
				rep.Findings[i].Path != ref.Findings[i].Path {
				t.Errorf("%d workers: finding %d = (%v, path %d), want (%v, path %d)",
					workers, i, rep.Findings[i].Err, rep.Findings[i].Path,
					ref.Findings[i].Err, ref.Findings[i].Path)
			}
		}
		for i := range ref.TestVectors {
			if rep.TestVectors[i].Path != ref.TestVectors[i].Path {
				t.Errorf("%d workers: test vector %d path %d, want %d",
					workers, i, rep.TestVectors[i].Path, ref.TestVectors[i].Path)
			}
		}
	}
}

// TestDFSMatchesSequentialOrder checks canonical numbering against the
// sequential depth-first explorer: DFS discovery order equals canonical
// signature order, so finding path indices must agree exactly.
func TestDFSMatchesSequentialOrder(t *testing.T) {
	opts := core.Options{Search: core.SearchDFS}
	seq := core.NewExplorer(findingTree(5)).Explore(opts)
	for _, workers := range []int{1, 3} {
		par := parexplore.Explore(findingTree(5), opts, workers)
		if len(par.Findings) != len(seq.Findings) {
			t.Fatalf("%d workers: %d findings, want %d", workers, len(par.Findings), len(seq.Findings))
		}
		for i := range seq.Findings {
			if par.Findings[i].Path != seq.Findings[i].Path ||
				par.Findings[i].Err.Error() != seq.Findings[i].Err.Error() {
				t.Errorf("%d workers: finding %d = (path %d, %v), want (path %d, %v)",
					workers, i, par.Findings[i].Path, par.Findings[i].Err,
					seq.Findings[i].Path, seq.Findings[i].Err)
			}
		}
	}
}

// TestMaxPathsMatchesSequentialDFS checks the canonical MaxPaths cut: the
// parallel exploration keeps exactly the MaxPaths smallest-signature paths,
// which under DFS is the same set the sequential explorer visits.
func TestMaxPathsMatchesSequentialDFS(t *testing.T) {
	opts := core.Options{Search: core.SearchDFS, MaxPaths: 9}
	seq := core.NewExplorer(findingTree(5)).Explore(opts)
	if seq.Stats.Paths != 9 || seq.Exhausted {
		t.Fatalf("sequential: paths=%d exhausted=%v", seq.Stats.Paths, seq.Exhausted)
	}
	for _, workers := range []int{1, 2, 4} {
		par := parexplore.Explore(findingTree(5), opts, workers)
		if !sameStats(seq.Stats, par.Stats) {
			t.Errorf("%d workers: stats diverge\nseq: %+v\npar: %+v", workers, seq.Stats, par.Stats)
		}
		if par.Exhausted {
			t.Errorf("%d workers: truncated run reported as exhausted", workers)
		}
	}
}

// TestStopOnFirstFindingCanonical checks StopOnFirstFinding returns the
// minimum-signature finding — the one sequential DFS reports — for every
// worker count and search strategy.
func TestStopOnFirstFindingCanonical(t *testing.T) {
	seqOpts := core.Options{Search: core.SearchDFS, StopOnFirstFinding: true}
	seq := core.NewExplorer(findingTree(5)).Explore(seqOpts)
	if len(seq.Findings) != 1 {
		t.Fatalf("sequential findings = %d, want 1", len(seq.Findings))
	}
	want := seq.Findings[0].Err.Error()
	for _, search := range []core.SearchStrategy{core.SearchDFS, core.SearchBFS, core.SearchRandom} {
		for _, workers := range []int{1, 2, 4} {
			opts := core.Options{Search: search, Seed: 3, StopOnFirstFinding: true}
			par := parexplore.Explore(findingTree(5), opts, workers)
			if len(par.Findings) != 1 {
				t.Fatalf("%v/%d workers: findings = %d, want 1", search, workers, len(par.Findings))
			}
			if got := par.Findings[0].Err.Error(); got != want {
				t.Errorf("%v/%d workers: finding %q, want canonical %q", search, workers, got, want)
			}
			if par.Exhausted {
				t.Errorf("%v/%d workers: stop-on-first run reported exhausted", search, workers)
			}
		}
	}
	// Under DFS the full stop-on-first report matches sequential exactly.
	par := parexplore.Explore(findingTree(5), seqOpts, 2)
	if !sameStats(seq.Stats, par.Stats) {
		t.Errorf("DFS/2 workers: stats diverge\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
	}
}

// TestErrStopExplorationCanonical checks a RunFunc stop return truncates the
// exploration at its canonical position, like the sequential explorer.
func TestErrStopExplorationCanonical(t *testing.T) {
	run := func(e *core.Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		var pat uint64
		for bit := 0; bit < 4; bit++ {
			if e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1))) {
				pat |= 1 << bit
			}
		}
		if pat == 2 {
			return core.ErrStopExploration
		}
		return nil
	}
	seq := core.NewExplorer(run).Explore(core.Options{Search: core.SearchDFS})
	for _, workers := range []int{1, 2, 4} {
		par := parexplore.Explore(run, core.Options{Search: core.SearchDFS}, workers)
		if !sameStats(seq.Stats, par.Stats) {
			t.Errorf("%d workers: stats diverge\nseq: %+v\npar: %+v", workers, seq.Stats, par.Stats)
		}
		if par.Exhausted {
			t.Errorf("%d workers: stopped run reported exhausted", workers)
		}
	}
}

// TestNoOptEquivalence runs the ablation mode (lazy sibling validation, so
// infeasible paths actually occur) through the same sweep.
func TestNoOptEquivalence(t *testing.T) {
	run := func(e *core.Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 8)
		// Dependent conditions make some flipped siblings infeasible.
		e.Branch(ctx.Ult(v, ctx.BV(8, 10)))
		e.Branch(ctx.Ult(v, ctx.BV(8, 5)))
		e.Branch(ctx.Ult(v, ctx.BV(8, 200)))
		return nil
	}
	opts := core.Options{Search: core.SearchDFS, NoBranchOptimizations: true}
	seq := core.NewExplorer(run).Explore(opts)
	if seq.Stats.Infeasible == 0 {
		t.Fatal("ablation workload produced no infeasible paths")
	}
	for _, workers := range []int{1, 2, 4} {
		par := parexplore.Explore(run, opts, workers)
		if !sameStats(seq.Stats, par.Stats) {
			t.Errorf("%d workers: stats diverge\nseq: %+v\npar: %+v", workers, seq.Stats, par.Stats)
		}
	}
}

// TestProgressCallbackFires checks the merged progress hook against the
// meaning core's TestProgressCallback pins: a snapshot follows every
// ProgressEvery-th recorded path and counts it. On an exhaustive tree the
// snapshots' Paths sequence is the sequential explorer's, and each one
// counts the outcome of every path it includes. The callback mutates shared
// state without a lock; -race checks that the hook is serialised.
func TestProgressCallbackFires(t *testing.T) {
	// findingTree's outcomes over 9 branches: 512 paths, two snapshots.
	run := func(e *core.Engine) error {
		ctx := e.Context()
		v := e.MakeSymbolic("v", 16)
		var pat uint64
		for bit := 0; bit < 9; bit++ {
			if e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1))) {
				pat |= 1 << bit
			}
		}
		if pat%3 == 0 {
			return fmt.Errorf("bad pattern %d", pat)
		}
		return nil
	}
	snapshots := func(explore func(core.Options) *core.Report) (paths []int) {
		opts := core.Options{
			Search: core.SearchDFS,
			Progress: func(s core.Stats) {
				if s.Completed+s.Partial+s.Infeasible != s.Paths {
					t.Errorf("snapshot counts %d outcomes for %d paths", s.Completed+s.Partial+s.Infeasible, s.Paths)
				}
				paths = append(paths, s.Paths)
			},
		}
		if rep := explore(opts); !rep.Exhausted {
			t.Fatal("tree not exhausted")
		}
		return paths
	}
	seq := snapshots(core.NewExplorer(run).Explore)
	par := snapshots(func(o core.Options) *core.Report { return parexplore.Explore(run, o, 2) })
	want := fmt.Sprint([]int{core.ProgressEvery, 2 * core.ProgressEvery})
	if fmt.Sprint(seq) != want || fmt.Sprint(par) != want {
		t.Errorf("snapshot paths: sequential %v, 2 workers %v, want %s", seq, par, want)
	}
}

// TestNoGoroutineLeak checks every worker exits after a stop-on-first-finding
// cancellation, with no goroutine left behind.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		rep := parexplore.Explore(findingTree(7), core.Options{
			Search:             core.SearchDFS,
			StopOnFirstFinding: true,
		}, 4)
		if len(rep.Findings) != 1 {
			t.Fatalf("findings = %d, want 1", len(rep.Findings))
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCosimFaultEquivalence runs real co-simulation hunts (the Table II cell
// recipe) for a fault sample and checks the parallel explorer finds the same
// mismatch class with the same deterministic statistics at every worker
// count. Witness values are any-model, so the comparison uses the mismatch
// classification key, not the rendered error.
func TestCosimFaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("cosim campaign test")
	}
	sample := []faults.Fault{faults.E1, faults.E5, faults.E6}
	for _, f := range sample {
		coreCfg := microrv32.FixedConfig()
		coreCfg.Faults = faults.Only(f)
		cfg := cosim.Config{
			ISS:        iss.FixedConfig(),
			Core:       coreCfg,
			Filter:     cosim.BlockSystemInstructions,
			InstrLimit: 1,
		}
		opts := core.Options{StopOnFirstFinding: true, MaxTime: 120 * time.Second}
		seq := core.NewExplorer(cosim.RunFunc(cfg)).Explore(opts)
		if len(seq.Findings) != 1 {
			t.Fatalf("%s: sequential findings = %d, want 1", f, len(seq.Findings))
		}
		wantKey := classifyKey(t, seq.Findings[0].Err)
		for _, workers := range []int{1, 2} {
			par := parexplore.Explore(cosim.RunFunc(cfg), opts, workers)
			if len(par.Findings) != 1 {
				t.Fatalf("%s/%d workers: findings = %d, want 1", f, workers, len(par.Findings))
			}
			if got := classifyKey(t, par.Findings[0].Err); got != wantKey {
				t.Errorf("%s/%d workers: mismatch class %q, want %q", f, workers, got, wantKey)
			}
			if !sameStats(seq.Stats, par.Stats) {
				t.Errorf("%s/%d workers: stats diverge\nseq: %+v\npar: %+v",
					f, workers, seq.Stats, par.Stats)
			}
		}
	}
}

func classifyKey(t *testing.T, err error) string {
	t.Helper()
	var m *rvfi.Mismatch
	if !errors.As(err, &m) {
		t.Fatalf("finding is not a mismatch: %v", err)
	}
	return harness.ClassifyFor(cosim.CoreMicroRV32, m).Key()
}

// TestCacheAblationEquivalence checks the query-elimination layer's
// determinism contract: the deterministic report fields (statistic totals,
// finding error strings and canonical path indices, test-vector counts) are
// byte-identical with the cache on and off, sequentially and at every worker
// count. Witness values are any-model and excluded; cache and CDCL counters
// are telemetry and excluded.
func TestCacheAblationEquivalence(t *testing.T) {
	run := findingTree(6)
	base := core.Options{Search: core.SearchDFS, GenerateTests: true}
	offOpts := base
	offOpts.NoQueryCache = true
	ref := core.NewExplorer(run).Explore(offOpts)

	check := func(name string, rep *core.Report) {
		t.Helper()
		if !sameStats(ref.Stats, rep.Stats) {
			t.Errorf("%s: stats diverge\noff: %+v\ngot: %+v", name, ref.Stats, rep.Stats)
		}
		if len(rep.Findings) != len(ref.Findings) {
			t.Fatalf("%s: %d findings, want %d", name, len(rep.Findings), len(ref.Findings))
		}
		for i := range ref.Findings {
			if rep.Findings[i].Err.Error() != ref.Findings[i].Err.Error() ||
				rep.Findings[i].Path != ref.Findings[i].Path {
				t.Errorf("%s: finding %d = (%v, path %d), want (%v, path %d)",
					name, i, rep.Findings[i].Err, rep.Findings[i].Path,
					ref.Findings[i].Err, ref.Findings[i].Path)
			}
		}
		if len(rep.TestVectors) != len(ref.TestVectors) {
			t.Errorf("%s: %d test vectors, want %d", name, len(rep.TestVectors), len(ref.TestVectors))
		}
		if rep.Exhausted != ref.Exhausted {
			t.Errorf("%s: exhausted=%v, want %v", name, rep.Exhausted, ref.Exhausted)
		}
	}

	check("seq cache on", core.NewExplorer(run).Explore(base))
	for _, workers := range []int{1, 2, 4} {
		check(fmt.Sprintf("par cache on/%d workers", workers), parexplore.Explore(run, base, workers))
		check(fmt.Sprintf("par cache off/%d workers", workers), parexplore.Explore(run, offOpts, workers))
	}
}

// TestCosimCacheAblation runs one real co-simulation hunt with the cache on
// and off and checks the finding's mismatch classification and the
// deterministic statistics agree (the Table II discipline for ablations).
func TestCosimCacheAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("cosim campaign test")
	}
	coreCfg := microrv32.FixedConfig()
	coreCfg.Faults = faults.Only(faults.E1)
	cfg := cosim.Config{
		ISS:        iss.FixedConfig(),
		Core:       coreCfg,
		Filter:     cosim.BlockSystemInstructions,
		InstrLimit: 1,
	}
	opts := core.Options{StopOnFirstFinding: true, MaxTime: 120 * time.Second}
	offOpts := opts
	offOpts.NoQueryCache = true
	ref := core.NewExplorer(cosim.RunFunc(cfg)).Explore(offOpts)
	if len(ref.Findings) != 1 {
		t.Fatalf("cache off: findings = %d, want 1", len(ref.Findings))
	}
	wantKey := classifyKey(t, ref.Findings[0].Err)
	for _, workers := range []int{1, 2} {
		par := parexplore.Explore(cosim.RunFunc(cfg), opts, workers)
		if len(par.Findings) != 1 {
			t.Fatalf("cache on/%d workers: findings = %d, want 1", workers, len(par.Findings))
		}
		if got := classifyKey(t, par.Findings[0].Err); got != wantKey {
			t.Errorf("cache on/%d workers: mismatch class %q, want %q", workers, got, wantKey)
		}
		if !sameStats(ref.Stats, par.Stats) {
			t.Errorf("cache on/%d workers: stats diverge\noff: %+v\non: %+v",
				workers, ref.Stats, par.Stats)
		}
	}
}

// TestSigOrderIsFirstComeStable documents the canonical-order invariant the
// merge relies on (sorted findings are in ascending path-index order).
func TestSigOrderIsFirstComeStable(t *testing.T) {
	rep := parexplore.Explore(findingTree(5), core.Options{Search: core.SearchBFS}, 3)
	idx := make([]int, len(rep.Findings))
	for i, f := range rep.Findings {
		idx[i] = f.Path
	}
	if !sort.IntsAreSorted(idx) {
		t.Errorf("finding path indices not canonical: %v", idx)
	}
}

// TestObsEquivalence checks the observability layer's side-channel contract:
// attaching a recorder with a live JSONL trace sink changes nothing in the
// report — statistic totals, finding errors, canonical path indices and the
// witness/test-vector input values are byte-identical to the untraced run,
// sequentially and sharded (the -trace on/off analogue of the cache
// ablation equivalence). The merged counter registry must also agree with
// the report it shadowed.
func TestObsEquivalence(t *testing.T) {
	run := findingTree(6)
	base := core.Options{Search: core.SearchDFS, GenerateTests: true}
	ref := core.NewExplorer(run).Explore(base)

	sameEnv := func(a, b map[string]uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}

	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		rec := obs.New(obs.Options{Trace: &buf, Label: "obs-equivalence"})
		opts := base
		opts.Obs = rec
		var rep *core.Report
		if workers > 1 {
			rep = parexplore.Explore(run, opts, workers)
		} else {
			rep = core.NewExplorer(run).Explore(opts)
		}
		snap := rec.Snapshot()
		rec.Close()

		if !sameStats(ref.Stats, rep.Stats) {
			t.Errorf("%d workers: stats diverge under tracing\noff: %+v\non:  %+v",
				workers, ref.Stats, rep.Stats)
		}
		if rep.Exhausted != ref.Exhausted {
			t.Errorf("%d workers: exhausted=%v, want %v", workers, rep.Exhausted, ref.Exhausted)
		}
		if len(rep.Findings) != len(ref.Findings) {
			t.Fatalf("%d workers: %d findings, want %d", workers, len(rep.Findings), len(ref.Findings))
		}
		for i := range ref.Findings {
			if rep.Findings[i].Err.Error() != ref.Findings[i].Err.Error() ||
				rep.Findings[i].Path != ref.Findings[i].Path ||
				!sameEnv(rep.Findings[i].Inputs, ref.Findings[i].Inputs) {
				t.Errorf("%d workers: finding %d = (%v, path %d, %v), want (%v, path %d, %v)",
					workers, i, rep.Findings[i].Err, rep.Findings[i].Path, rep.Findings[i].Inputs,
					ref.Findings[i].Err, ref.Findings[i].Path, ref.Findings[i].Inputs)
			}
		}
		if len(rep.TestVectors) != len(ref.TestVectors) {
			t.Fatalf("%d workers: %d test vectors, want %d",
				workers, len(rep.TestVectors), len(ref.TestVectors))
		}
		for i := range ref.TestVectors {
			if rep.TestVectors[i].Path != ref.TestVectors[i].Path ||
				!sameEnv(rep.TestVectors[i].Inputs, ref.TestVectors[i].Inputs) {
				t.Errorf("%d workers: test vector %d diverges under tracing", workers, i)
			}
		}

		// The registry shadowed the same exploration: its explore.* counters
		// must equal the deterministic report totals, and the trace sink must
		// have seen one span per path plus the explore root.
		if got := snap.Counters[core.CtrPaths]; got != uint64(rep.Stats.Paths) {
			t.Errorf("%d workers: counter %s = %d, want %d", workers, core.CtrPaths, got, rep.Stats.Paths)
		}
		if got := snap.Counters[core.CtrQueries]; got != rep.Stats.SolverQueries {
			t.Errorf("%d workers: counter %s = %d, want %d", workers, core.CtrQueries, got, rep.Stats.SolverQueries)
		}
		if got := snap.Counters[core.CtrImplied]; got != rep.Stats.Implied {
			t.Errorf("%d workers: counter %s = %d, want %d", workers, core.CtrImplied, got, rep.Stats.Implied)
		}
		if want := uint64(rep.Stats.Paths); snap.Phases[obs.PhasePath].Count != want {
			t.Errorf("%d workers: phase %s count = %d, want %d",
				workers, obs.PhasePath, snap.Phases[obs.PhasePath].Count, want)
		}
		if buf.Len() == 0 {
			t.Errorf("%d workers: trace sink stayed empty", workers)
		}
	}
}

// TestLimit2CosimWorkerEquivalence pins the sharded orchestrator against the
// sequential explorer on a limit-2 co-simulation, where decision prefixes
// span two instructions and hand-offs replay them in a fresh context: every
// worker count reports the deterministic statistics and finding set of the
// sequential reference. The other worker-equivalence tests run at limit 1.
func TestLimit2CosimWorkerEquivalence(t *testing.T) {
	cfg := cosim.Config{
		ISS:        iss.FixedConfig(),
		Core:       microrv32.FixedConfig(),
		Filter:     cosim.BlockSystemInstructions,
		InstrLimit: 2,
	}
	opts := core.Options{
		Search:   core.SearchDFS,
		MaxPaths: 60,
		MaxTime:  120 * time.Second,
	}
	ref := core.NewExplorer(cosim.RunFunc(cfg)).Explore(opts)
	if ref.Stats.Paths == 0 {
		t.Fatal("reference exploration ran no paths")
	}
	wantFindings := findingSet(t, ref)
	for _, workers := range []int{1, 2, 4} {
		rep := parexplore.Explore(cosim.RunFunc(cfg), opts, workers)
		if !sameStats(ref.Stats, rep.Stats) {
			t.Errorf("workers=%d: stats diverge\nref: %+v\ngot: %+v", workers, ref.Stats, rep.Stats)
		}
		got := findingSet(t, rep)
		if len(got) != len(wantFindings) {
			t.Errorf("workers=%d: findings %v, want %v", workers, got, wantFindings)
		}
		for k := range wantFindings {
			if got[k] != wantFindings[k] {
				t.Errorf("workers=%d: finding %q count %d, want %d", workers, k, got[k], wantFindings[k])
			}
		}
	}
}

// TestHandoffStressMatchesSequential keeps hand-off batches tiny: on a
// 64-path tree the seed phase already splits the frontier into subtrees of
// at most two paths, so prefixes cross workers constantly and every worker
// rebuilds its share of each subtree by replay in its own context. Stats and
// findings must still equal the sequential exploration's, on every
// repetition. CI runs this under -race.
func TestHandoffStressMatchesSequential(t *testing.T) {
	run := findingTree(6)
	seq := core.NewExplorer(run).Explore(core.Options{Search: core.SearchDFS})
	if seq.Stats.Paths != 1<<6 {
		t.Fatalf("sequential paths = %d, want %d", seq.Stats.Paths, 1<<6)
	}
	want := findingSet(t, seq)
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			par := parexplore.Explore(run, core.Options{Search: core.SearchDFS}, workers)
			if !sameStats(seq.Stats, par.Stats) {
				t.Errorf("workers=%d run %d: stats diverge\nseq: %+v\npar: %+v",
					workers, rep, seq.Stats, par.Stats)
			}
			got := findingSet(t, par)
			for k, n := range want {
				if got[k] != n {
					t.Errorf("workers=%d run %d: finding %q count %d, want %d", workers, rep, k, got[k], n)
				}
			}
			if len(got) != len(want) {
				t.Errorf("workers=%d run %d: findings %v, want %v", workers, rep, got, want)
			}
		}
	}
}
