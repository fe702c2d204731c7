package core

import (
	"errors"

	"symriscv/internal/obs"
	"symriscv/internal/querycache"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// PathKind classifies the outcome of one explored path.
type PathKind uint8

// Path outcomes.
const (
	PathCompleted  PathKind = iota // RunFunc returned nil
	PathPartial                    // limit or solver-unknown abort
	PathInfeasible                 // flipped branch or assumption unsatisfiable
	PathFinding                    // RunFunc returned an error
	PathStopped                    // RunFunc returned ErrStopExploration
)

// PathRecord is the outcome of one path explored by a Shard, carrying the
// per-path statistic deltas so an orchestrator can merge shard results
// deterministically: the engine's behaviour on a path does not depend on how
// the tree was split (replays cost no queries except the one flip check,
// whose necessity travels with the prefix via SibVerified), so summing
// deltas over a canonical, Sig-ordered subset of records yields totals that
// are independent of scheduling.
type PathRecord struct {
	Sig        Sig
	Kind       PathKind
	Err        error      // the finding (Kind == PathFinding)
	Inputs     smt.MapEnv // finding witness, restricted to the path's symbolic inputs
	TestInputs smt.MapEnv // test vector (Kind == PathCompleted, GenerateTests)
	HasTest    bool

	Instructions    uint64
	Cycles          uint64
	Branches        uint64
	Concretizations uint64
	SolverQueries   uint64
}

// ShardOptions configure one worker's exploration behaviour. Budgets are the
// orchestrator's job (it decides when to stop calling Step), so they do not
// appear here.
type ShardOptions struct {
	Search                SearchStrategy
	Seed                  int64
	SolverConflictBudget  uint64
	NoBranchOptimizations bool
	GenerateTests         bool
	NoQueryCache          bool
	// Obs, when non-nil, attaches this shard to the observability layer;
	// ObsWorker is the worker index its spans and counters report under.
	Obs       *obs.Recorder
	ObsWorker int
}

// Shard explores disjoint subtrees of one program's path tree over a private
// term context and solver. It is the sequential building block of parallel
// exploration: an orchestrator seeds it with portable prefixes, calls Step
// until the frontier drains, and moves work between shards with Handoff /
// AddPrefix. A Shard is not safe for concurrent use; run each on one
// goroutine.
type Shard struct {
	ctx    *smt.Context
	sol    *solver.Solver
	run    RunFunc
	w      walker
	rng    pathRNG
	opts   ShardOptions
	qc     *querycache.Local
	h      *obs.Handle
	onPath pathMarks // reused by every path's Engine
	eng    Engine    // reused for every path
}

// NewShard returns a shard with a fresh context and solver.
func NewShard(run RunFunc, opts ShardOptions) *Shard {
	ctx := smt.NewContext()
	sol := solver.New(ctx)
	sol.SetConflictBudget(opts.SolverConflictBudget)
	s := &Shard{
		ctx:  ctx,
		sol:  sol,
		run:  run,
		w:    walker{trackSigs: true},
		rng:  pathRNG{state: uint64(opts.Seed)},
		opts: opts,
	}
	if !opts.NoQueryCache {
		s.qc = querycache.NewLocal(ctx, sol, nil)
	}
	s.h = opts.Obs.NewHandle(opts.ObsWorker)
	sol.SetObs(s.h)
	if s.qc != nil {
		s.qc.SetObs(s.h)
	}
	return s
}

// ObsHandle returns the shard's observability handle (nil when disabled).
// The orchestrator uses it to stitch the shard's spans under its explore
// root and to merge counter shards at hand-off points.
func (s *Shard) ObsHandle() *obs.Handle { return s.h }

// FlushObs merges the shard's counter/phase shards into the recorder, the
// observability analogue of FlushCache. The orchestrator calls both at the
// same hand-off points.
func (s *Shard) FlushObs() { s.h.Flush() }

// PublishObsCounters absorbs the shard's solver and query-cache counters
// into its registry shard and flushes. Called once per shard when the
// orchestrator merges results. The explore.* family comes from the
// orchestrator's merged report instead: summing per-shard path deltas
// would double-count replay work moved across hand-offs.
func (s *Shard) PublishObsCounters() {
	if s.h == nil {
		return
	}
	terms, satVars := s.Sizes()
	publishBackendObs(s.h, s.SolverStats(), s.CacheStats(), terms, satVars)
	s.h.Flush()
}

// AttachSharedCache connects the cross-worker query-cache store. Call before
// exploration starts; a no-op when the cache is disabled.
func (s *Shard) AttachSharedCache(sh *querycache.Shared) {
	if s.qc != nil {
		s.qc.AttachShared(sh)
	}
}

// FlushCache publishes locally created query-cache entries to the shared
// store (no-op without one). The orchestrator calls this at handoff points.
func (s *Shard) FlushCache() {
	if s.qc != nil {
		s.qc.Flush()
	}
}

// CacheStats returns the shard's query-elimination counters.
func (s *Shard) CacheStats() querycache.Stats {
	if s.qc == nil {
		return querycache.Stats{}
	}
	return s.qc.Stats()
}

// SolverStats returns the shard solver's cumulative counters.
func (s *Shard) SolverStats() solver.Stats { return s.sol.Stats() }

// SeedRoot schedules the empty prefix — the whole path tree.
func (s *Shard) SeedRoot() { s.w.addRoot() }

// AddPrefix schedules an imported subtree root.
func (s *Shard) AddPrefix(prefix []Step, sig Sig) { s.w.addPrefix(prefix, sig) }

// Pending returns the number of scheduled, unexplored subtree roots.
func (s *Shard) Pending() int { return s.w.pending() }

// SetBound discards present and future work ordered strictly after sig.
func (s *Shard) SetBound(sig Sig) { s.w.setBound(sig) }

// Pruned reports whether any work was discarded by a bound.
func (s *Shard) Pruned() bool { return s.w.pruned }

// Handoff removes the oldest (shallowest, hence largest-subtree) frontier
// node and exports it in portable form for another shard.
func (s *Shard) Handoff() ([]Step, Sig, bool) {
	if len(s.w.frontier) == 0 {
		return nil, "", false
	}
	n := s.w.frontier[0]
	s.w.frontier = s.w.frontier[1:]
	return s.w.export(n, s.ctx), n.sig, true
}

// Step explores one path using the given pop order (the orchestrator's seed
// phase overrides the configured strategy with BFS to widen the frontier).
// It returns false when the frontier is empty or fully pruned.
func (s *Shard) Step(order SearchStrategy) (PathRecord, bool) {
	n := s.w.pop(order, &s.rng)
	if n == nil {
		return PathRecord{}, false
	}

	sp := s.h.Start(obs.PhasePath)
	var st Stats
	eng := &s.eng
	eng.reset(s.ctx, s.sol, s.w.materialize(n), n.imported, &st, s.qc, &s.onPath)
	eng.noOpt = s.opts.NoBranchOptimizations
	eng.h = s.h
	err, abort := runOne(s.run, eng)

	rec := PathRecord{
		Sig:          s.w.pathSig(n, eng.onPath.fresh),
		Instructions: eng.instrRetired,
		Cycles:       eng.cycles,
	}
	switch {
	case abort != nil && abort.reason == AbortInfeasible:
		rec.Kind = PathInfeasible
		sp.End()
		return finishRecord(rec, &st), true // no fresh decisions to fork from
	case abort != nil:
		rec.Kind = PathPartial
	case errors.Is(err, ErrStopExploration):
		rec.Kind = PathStopped
		sp.End()
		return finishRecord(rec, &st), true // sequential parity: stop schedules no siblings
	case err != nil:
		rec.Kind = PathFinding
		rec.Err = err
		if w, ok := err.(Witnesser); ok {
			rec.Inputs = filterInputs(w.Witness(), eng.onPath.symbolic)
		} else if m, ok := eng.PathModel(); ok {
			rec.Inputs = m
		}
	default:
		rec.Kind = PathCompleted
		if s.opts.GenerateTests {
			if m, ok := eng.PathModel(); ok {
				rec.TestInputs = m
				rec.HasTest = true
			}
		}
	}

	// Every scheduled sibling flips a taken-true decision to false, so all
	// children order strictly after this path's Sig — scheduling after a
	// min-Sig finding is harmless under a bound (everything gets pruned).
	s.w.schedule(n, eng.onPath.fresh)
	sp.End()
	return finishRecord(rec, &st), true
}

// finishRecord captures the per-path statistic deltas after classification,
// so witness and test-vector model queries are attributed to their path just
// as the sequential explorer counts them.
func finishRecord(rec PathRecord, st *Stats) PathRecord {
	rec.Branches = st.Branches
	rec.Concretizations = st.Concretizations
	rec.SolverQueries = st.SolverQueries
	return rec
}

// Sizes reports the shard's term-context and SAT-instance sizes.
func (s *Shard) Sizes() (terms, satVars int) {
	return s.ctx.NumTerms(), s.sol.NumSATVars()
}
