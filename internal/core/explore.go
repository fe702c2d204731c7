package core

import (
	"errors"
	"fmt"
	"time"

	"symriscv/internal/obs"
	"symriscv/internal/querycache"
	"symriscv/internal/sat"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// wallNow is the single wall-clock read of the deterministic kernel, used
// only for the MaxTime budget and the Elapsed statistic. Budget expiry
// changes how many paths are explored, never any decision inside a path,
// so replay determinism is preserved.
func wallNow() time.Time {
	return time.Now() //symlint:allow determinism -- budget/telemetry only; never feeds terms or branch decisions
}

// pathRNG is a splitmix64 PRNG for the random-path searcher. A local
// generator keeps math/rand out of the deterministic kernel and, unlike
// math/rand's default source, has output that is stable across Go
// releases, so a recorded exploration replays identically forever.
type pathRNG struct{ state uint64 }

func (r *pathRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n) for n > 0.
func (r *pathRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// SearchStrategy selects the order in which scheduled paths are explored.
type SearchStrategy uint8

// Search strategies. DFS dives along one decode chain; BFS sweeps the
// decision tree level by level; RandomPath picks uniformly from the frontier
// (the spirit of KLEE's random-path searcher, deterministic via Options.Seed).
const (
	SearchDFS SearchStrategy = iota
	SearchBFS
	SearchRandom
)

func (s SearchStrategy) String() string {
	switch s {
	case SearchBFS:
		return "bfs"
	case SearchRandom:
		return "random-path"
	}
	return "dfs"
}

// RunFunc is one deterministic execution of the program under exploration
// (for processor verification: one co-simulation run). A nil return completes
// the path; a non-nil error is recorded as a finding (e.g. a voter mismatch).
type RunFunc func(*Engine) error

// Options configure an exploration.
type Options struct {
	// MaxPaths bounds the number of paths started; 0 means unlimited.
	MaxPaths int
	// MaxTime bounds the wall-clock exploration time; 0 means unlimited.
	MaxTime time.Duration
	// MaxInstructions bounds the cumulative retired-instruction count
	// across all paths; 0 means unlimited.
	MaxInstructions uint64
	// StopOnFirstFinding ends the exploration at the first finding.
	StopOnFirstFinding bool
	// GenerateTests records a concrete test vector for every completed path
	// (KLEE's .ktest analogue).
	GenerateTests bool
	// Search selects the exploration order (default depth-first).
	Search SearchStrategy
	// Seed seeds the random-path strategy; ignored otherwise.
	Seed int64
	// SolverConflictBudget bounds each SAT query; 0 means unlimited.
	// Exhausted queries abort their path as AbortUnknown.
	SolverConflictBudget uint64
	// Progress, when set, receives a statistics snapshot every
	// ProgressEvery started paths (default 256).
	Progress func(Stats)
	// ProgressEvery sets the Progress callback period in paths.
	ProgressEvery int
	// NoBranchOptimizations disables the engine's implication shortcut and
	// eager sibling-feasibility checks (ablation mode): siblings are
	// scheduled optimistically and validated lazily on replay.
	NoBranchOptimizations bool
	// NoQueryCache disables the query-elimination layer (stack models,
	// independence slicing, feasibility caching): every engine query goes
	// straight to the SAT core. Ablation mode (symv -cache=off).
	NoQueryCache bool
	// SharedCache, when non-nil, is the cross-worker (and, via
	// internal/qstore, cross-campaign) feasibility store the exploration
	// attaches to. Entries flow in at startup and out at hand-off points.
	// Ignored when NoQueryCache is set. Like every cache layer it is
	// answer-preserving: reports are byte-identical with and without it.
	SharedCache *querycache.Shared
	// Obs, when non-nil, receives spans and counters for this exploration.
	// Observability is side-channel only: it never influences exploration
	// decisions, so reports are byte-identical with and without it.
	Obs *obs.Recorder
}

// Stats aggregates exploration counters. The instruction and cycle counts
// are whatever the program reported via CountInstruction/CountCycle — for
// the co-simulation, retired instructions summed over both models and all
// paths (see EXPERIMENTS.md for how this maps to the paper's counts).
type Stats struct {
	Paths        int // paths started
	Completed    int // RunFunc returned nil
	Partial      int // findings, limits, solver-unknown aborts
	Infeasible   int // flipped branches that turned out unsatisfiable
	Instructions uint64
	Cycles       uint64

	Branches        uint64
	Concretizations uint64
	// SolverQueries counts engine-issued queries. It is independent of the
	// query-elimination layer (a cache hit still counts), so it is part of
	// the deterministic report contract.
	SolverQueries uint64
	Elapsed       time.Duration
	TermCount     int
	SATVars       int

	// Telemetry below: like TermCount/SATVars/Elapsed these depend on cache
	// and scheduling state and are excluded from determinism comparisons.

	// CDCLQueries counts queries that reached the SAT core (the cost the
	// elimination layer removes; equals SolverQueries with the cache off).
	CDCLQueries uint64
	// SolverUnknowns counts conflict-budget-exhausted answers.
	SolverUnknowns uint64
	// RewriteHits is always zero: the extended term rewriter was removed,
	// and only the basic constructor folds in smt/build.go are left. The
	// field stays because the benchmark module (perfbench/metrics.go,
	// perfbench/gate.go) still reads it; drop it together with perfbench's
	// smt.rewrite_hits metric in a declared benchmark change.
	RewriteHits uint64
	// Cache breaks eliminated queries down by hit kind.
	Cache querycache.Stats
	// SAT holds the CDCL core's own counters (propagations, conflicts,
	// restarts, learnt/deleted clauses), summed over
	// all workers' solvers.
	SAT sat.Stats
	// ForkSnapshots, ForkResumes and ReplayEventsSaved are always zero:
	// fork-point checkpointing was removed and every path replays its
	// decision prefix from the start. They remain only because the
	// benchmark module (perfbench/metrics.go, perfbench/gate.go) still reads
	// them; drop them together with perfbench's fork.* metrics in a
	// declared benchmark change.
	ForkSnapshots     uint64
	ForkResumes       uint64
	ReplayEventsSaved uint64
}

// Finding is a path that ended in an error (for the co-simulation: a voter
// mismatch), together with a concrete witness restricted to that path's
// symbolic inputs.
type Finding struct {
	Err    error
	Inputs smt.MapEnv
	Path   int // index of the path (in start order) that produced it
}

// TestVector is the concrete input assignment of a completed path.
type TestVector struct {
	Path   int
	Inputs smt.MapEnv
}

// Report is the result of an exploration.
type Report struct {
	Stats       Stats
	Findings    []Finding
	TestVectors []TestVector
	// Exhausted is true when the whole path tree was explored (the frontier
	// emptied) rather than a budget expiring.
	Exhausted bool
}

// Witnesser lets error values carry their own counterexample model;
// the co-simulation voter's mismatch error implements it.
type Witnesser interface {
	Witness() smt.MapEnv
}

// Explorer drives repeated executions of a program over one shared term
// context and solver.
type Explorer struct {
	ctx    *smt.Context
	sol    *solver.Solver
	run    RunFunc
	qc     *querycache.Local
	onPath pathMarks // reused by every path's Engine
	eng    Engine    // reused for every path
}

// NewExplorer returns an explorer for the program run.
func NewExplorer(run RunFunc) *Explorer {
	ctx := smt.NewContext()
	return &Explorer{ctx: ctx, sol: solver.New(ctx), run: run}
}

// Context exposes the shared term context (for tests and tooling).
func (x *Explorer) Context() *smt.Context { return x.ctx }

// Explore runs the program over the whole feasible path tree, subject to the
// option budgets.
func (x *Explorer) Explore(opts Options) *Report {
	start := wallNow()
	x.sol.SetConflictBudget(opts.SolverConflictBudget)
	if opts.NoQueryCache {
		x.qc = nil
	} else if x.qc == nil {
		x.qc = querycache.NewLocal(x.ctx, x.sol, nil)
	}
	if x.qc != nil && opts.SharedCache != nil {
		x.qc.AttachShared(opts.SharedCache)
	}

	h := opts.Obs.NewHandle(0)
	x.sol.SetObs(h)
	if x.qc != nil {
		x.qc.SetObs(h)
	}
	root := h.Start(obs.PhaseExplore)

	rep := &Report{}
	wk := &walker{}
	wk.addRoot()
	rng := &pathRNG{state: uint64(opts.Seed)}
	progressEvery := opts.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 256
	}

	for wk.pending() > 0 {
		if opts.MaxPaths > 0 && rep.Stats.Paths >= opts.MaxPaths {
			break
		}
		if opts.MaxTime > 0 && wallNow().Sub(start) >= opts.MaxTime {
			break
		}
		if opts.MaxInstructions > 0 && rep.Stats.Instructions >= opts.MaxInstructions {
			break
		}

		n := wk.pop(opts.Search, rng)
		pathID := rep.Stats.Paths
		rep.Stats.Paths++
		if opts.Progress != nil && rep.Stats.Paths%progressEvery == 0 {
			snap := rep.Stats
			snap.Elapsed = wallNow().Sub(start)
			opts.Progress(snap)
		}

		sp := h.Start(obs.PhasePath)
		sp.SetPath(pathID)
		eng := &x.eng
		eng.reset(x.ctx, x.sol, wk.materialize(n), nil, &rep.Stats, x.qc, &x.onPath)
		eng.noOpt = opts.NoBranchOptimizations
		eng.h = h
		err, abort := runOne(x.run, eng)

		rep.Stats.Instructions += eng.instrRetired
		rep.Stats.Cycles += eng.cycles

		switch {
		case abort != nil && abort.reason == AbortInfeasible:
			rep.Stats.Infeasible++
			sp.End()
			continue // no fresh decisions to fork from
		case abort != nil:
			rep.Stats.Partial++
		case errors.Is(err, ErrStopExploration):
			rep.Stats.Completed++
			sp.End()
			return x.finish(rep, start, root, h)
		case err != nil:
			rep.Stats.Partial++
			f := Finding{Err: err, Path: pathID}
			if w, ok := err.(Witnesser); ok {
				f.Inputs = filterInputs(w.Witness(), eng.onPath.symbolic)
			} else if m, ok := eng.PathModel(); ok {
				f.Inputs = m
			}
			rep.Findings = append(rep.Findings, f)
			if opts.StopOnFirstFinding {
				sp.End()
				return x.finish(rep, start, root, h)
			}
		default:
			rep.Stats.Completed++
			if opts.GenerateTests {
				if m, ok := eng.PathModel(); ok {
					rep.TestVectors = append(rep.TestVectors, TestVector{
						Path:   pathID,
						Inputs: m,
					})
				}
			}
		}

		// Schedule the unexplored sibling of every fresh branch decision.
		wk.schedule(n, eng.onPath.fresh)
		sp.End()
	}

	rep.Exhausted = wk.pending() == 0
	return x.finish(rep, start, root, h)
}

// finish stamps the elapsed time and size/telemetry fields, then closes
// out observability: the explore root span ends, the absorbed counters are
// published, and the handle's shards merge into the recorder.
func (x *Explorer) finish(rep *Report, start time.Time, root *obs.Span, h *obs.Handle) *Report {
	rep.Stats.Elapsed = wallNow().Sub(start)
	if x.qc != nil {
		// Publish locally created entries to the shared store (no-op without
		// one) — the sequential explorer's hand-off boundary is completion.
		x.qc.Flush()
	}
	x.fillSizes(rep)
	root.End()
	publishObs(h, rep.Stats, x.sol.Stats())
	h.Flush()
	return rep
}

func (x *Explorer) fillSizes(rep *Report) {
	rep.Stats.TermCount = x.ctx.NumTerms()
	rep.Stats.SATVars = x.sol.NumSATVars()
	ss := x.sol.Stats()
	rep.Stats.CDCLQueries = ss.Checks
	rep.Stats.SolverUnknowns = ss.UnknownAns
	rep.Stats.SAT = ss.SAT
	if x.qc != nil {
		rep.Stats.Cache = x.qc.Stats()
	}
}

// runOne executes one path, converting abort panics into a structured result.
func runOne(run RunFunc, eng *Engine) (err error, abort *abortError) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(abortError); ok {
				abort = &a
				return
			}
			panic(r)
		}
	}()
	return run(eng), nil
}

// filterInputs restricts a Witnesser's model to the path's symbolic inputs.
// PathModel results need no filtering: they hold exactly those inputs.
func filterInputs(m smt.MapEnv, inputs []*smt.Term) smt.MapEnv {
	out := make(smt.MapEnv, len(inputs))
	for _, v := range inputs {
		if val, ok := m[v.Name()]; ok {
			out[v.Name()] = val
		}
	}
	return out
}

// ErrStopExploration can be returned by a RunFunc to end the exploration
// cleanly without recording a finding.
var ErrStopExploration = errors.New("core: stop exploration")

// String renders a compact single-line summary of the statistics.
func (s Stats) String() string {
	return fmt.Sprintf("paths=%d completed=%d partial=%d infeasible=%d instr=%d queries=%d elapsed=%s",
		s.Paths, s.Completed, s.Partial, s.Infeasible, s.Instructions, s.SolverQueries, s.Elapsed.Round(time.Millisecond))
}
