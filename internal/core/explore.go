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

// ProgressEvery is the Options.Progress period in paths, the same for the
// sequential explorer and the parallel orchestrator.
const ProgressEvery = 256

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
	// StopOnFirstFinding ends the exploration at the first finding.
	StopOnFirstFinding bool
	// GenerateTests records a concrete test vector for every completed path
	// (KLEE's .ktest analogue).
	GenerateTests bool
	// Search selects the exploration order (default depth-first).
	Search SearchStrategy
	// Seed seeds the random-path strategy; ignored otherwise.
	Seed int64
	// Progress, when set, receives a statistics snapshot after every
	// ProgressEvery-th path has been added to the report; the snapshot
	// counts that path.
	Progress func(Stats)
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
	Partial      int // findings and limits
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
	// SolverUnknowns is always zero: it counted conflict-budget-exhausted
	// answers, and the SAT core has no budget any more (every search ends
	// in Sat or Unsat). Like
	// RewriteHits it stays because the benchmark module (perfbench/main.go,
	// perfbench/gate.go) still reads it.
	SolverUnknowns uint64
	// RewriteHits is always zero: the extended term rewriter was removed,
	// and only the basic constructor folds in smt/build.go are left. The
	// field stays because the benchmark module (perfbench/metrics.go,
	// perfbench/gate.go) still reads it; drop it together with perfbench's
	// smt.rewrite_hits metric in a declared benchmark change.
	RewriteHits uint64
	// Cache breaks eliminated queries down by hit kind.
	Cache querycache.Stats
	// SAT holds the CDCL core's own counters (conflicts, decisions,
	// propagations, learnt clauses), summed over all workers' solvers.
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

// Add appends one explored path to the report under the next path index:
// its statistic deltas, its outcome count, and its finding or test vector.
// The sequential explorer adds paths in start order and the parallel merge
// in canonical Sig order; both go through here.
func (r *Report) Add(rec PathRecord) {
	st := &r.Stats
	path := st.Paths
	st.Paths++
	st.Instructions += rec.Instructions
	st.Cycles += rec.Cycles
	st.Branches += rec.Branches
	st.Concretizations += rec.Concretizations
	st.SolverQueries += rec.SolverQueries
	switch rec.Kind {
	case PathCompleted, PathStopped:
		st.Completed++
	case PathInfeasible:
		st.Infeasible++
	default:
		st.Partial++
	}
	switch {
	case rec.Kind == PathFinding:
		r.Findings = append(r.Findings, Finding{Err: rec.Err, Inputs: rec.Inputs, Path: path})
	case rec.Kind == PathCompleted && rec.Inputs != nil:
		r.TestVectors = append(r.TestVectors, TestVector{Path: path, Inputs: rec.Inputs})
	}
}

// Explorer drives repeated executions of a program over one private term
// context and solver. Explore runs a whole exploration under the option
// budgets; NewShard makes one for a parallel orchestrator, which drives Step
// directly and moves subtrees between explorers.
// An Explorer is not safe for concurrent use.
type Explorer struct {
	ctx    *smt.Context
	sol    *solver.Solver
	run    RunFunc
	opts   Options
	w      walker
	rng    pathRNG
	qc     *querycache.Local
	h      *obs.Handle
	onPath pathMarks // reused by every path's Engine
	eng    Engine    // reused for every path
	st     Stats     // the current path's statistic deltas
	paths  int       // paths started since the last configure
}

// NewExplorer returns an explorer for the program run.
func NewExplorer(run RunFunc) *Explorer {
	ctx := smt.NewContext()
	return &Explorer{ctx: ctx, sol: solver.New(ctx), run: run}
}

// NewShard returns an explorer for one worker of a parallel exploration. It
// takes the exploration's options but ignores their budgets (the
// orchestrator decides when to stop calling Step); worker is the index its
// spans and counters report under. A shard signs every path it explores
// (PathRecord.Sig), so the orchestrator can merge in canonical order.
func NewShard(run RunFunc, opts Options, worker int) *Explorer {
	x := NewExplorer(run)
	x.configure(opts, worker)
	x.w.trackSigs = true
	return x
}

// configure applies opts to the solver, the query cache and the
// observability handle; the cache, with its entries, outlives one
// exploration unless opts disable it.
func (x *Explorer) configure(opts Options, worker int) {
	x.opts = opts
	x.rng = pathRNG{state: uint64(opts.Seed)}
	x.paths = 0
	if opts.NoQueryCache {
		x.qc = nil
	} else if x.qc == nil {
		x.qc = querycache.NewLocal(x.ctx, x.sol, nil)
	}
	if x.qc != nil && opts.SharedCache != nil {
		x.qc.AttachShared(opts.SharedCache)
	}
	x.h = opts.Obs.NewHandle(worker)
	x.sol.SetObs(x.h)
	if x.qc != nil {
		x.qc.SetObs(x.h)
	}
}

// Context exposes the shared term context (for tests and tooling).
func (x *Explorer) Context() *smt.Context { return x.ctx }

// Explore runs the program over the whole feasible path tree, subject to the
// option budgets.
func (x *Explorer) Explore(opts Options) *Report {
	start := wallNow()
	x.configure(opts, 0)
	root := x.h.Start(obs.PhaseExplore)
	x.w = walker{}
	x.w.addRoot()

	rep := &Report{}
	stopped := false
	for x.w.pending() > 0 && !stopped {
		if opts.MaxPaths > 0 && rep.Stats.Paths >= opts.MaxPaths {
			break
		}
		if opts.MaxTime > 0 && wallNow().Sub(start) >= opts.MaxTime {
			break
		}
		rec, _ := x.Step(opts.Search)
		rep.Add(rec)
		if opts.Progress != nil && rep.Stats.Paths%ProgressEvery == 0 {
			snap := rep.Stats
			snap.Elapsed = wallNow().Sub(start)
			opts.Progress(snap)
		}
		stopped = rec.Kind == PathStopped || rec.Kind == PathFinding && opts.StopOnFirstFinding
	}

	rep.Exhausted = !stopped && x.w.pending() == 0
	rep.Stats.Elapsed = wallNow().Sub(start)
	x.Flush() // completion is the sequential explorer's hand-off boundary
	root.End()
	PublishExploreObs(x.h, rep.Stats)
	x.Finish(&rep.Stats)
	return rep
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
