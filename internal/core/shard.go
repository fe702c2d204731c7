package core

import (
	"errors"

	"symriscv/internal/obs"
	"symriscv/internal/querycache"
	"symriscv/internal/smt"
)

// PathKind classifies the outcome of one explored path.
type PathKind uint8

// Path outcomes.
const (
	PathCompleted  PathKind = iota // RunFunc returned nil
	PathPartial                    // execution-controller limit reached mid-step
	PathInfeasible                 // flipped branch or assumption unsatisfiable
	PathFinding                    // RunFunc returned an error
	PathStopped                    // RunFunc returned ErrStopExploration
)

// PathRecord is the outcome of one explored path, carrying the per-path
// statistic deltas Report.Add folds in. The deltas do not depend on how the
// tree was split (replays cost no queries except the one flip check, whose
// necessity travels with the prefix via SibVerified), so summing them over a
// canonical, Sig-ordered subset of a parallel exploration's records yields
// totals that are independent of scheduling.
type PathRecord struct {
	Sig  Sig // canonical signature; set only by shards (NewShard)
	Kind PathKind
	Err  error // the finding (Kind == PathFinding)
	// Inputs is the finding's witness, restricted to the path's symbolic
	// inputs, or a completed path's test vector (GenerateTests); nil when
	// there is none.
	Inputs smt.MapEnv

	Instructions    uint64
	Cycles          uint64
	Branches        uint64
	Concretizations uint64
	SolverQueries   uint64
}

// ObsHandle returns the explorer's observability handle (nil when
// disabled). A parallel orchestrator stitches a shard's spans under its own
// explore root through it.
func (x *Explorer) ObsHandle() *obs.Handle { return x.h }

// Flush publishes locally created query-cache entries to the shared store
// (no-op without one) and merges the counter/phase shards into the
// recorder. A parallel orchestrator calls it at hand-off points.
func (x *Explorer) Flush() {
	if x.qc != nil {
		x.qc.Flush()
	}
	x.h.Flush()
}

// Finish folds the explorer's telemetry into st — the term-context and
// SAT-instance sizes (by max), the solver, SAT and query-cache counters (by
// sum) — publishes the same figures to its observability handle and flushes.
// Explore calls it once at the end; a parallel merge calls it per shard.
func (x *Explorer) Finish(st *Stats) {
	terms, satVars := x.ctx.NumTerms(), x.sol.NumSATVars()
	st.TermCount = max(st.TermCount, terms)
	st.SATVars = max(st.SATVars, satVars)
	ss := x.sol.Stats()
	st.CDCLQueries += ss.Checks
	st.SAT.Add(ss.SAT)
	var cs querycache.Stats
	if x.qc != nil {
		cs = x.qc.Stats()
	}
	st.Cache.Add(cs)
	publishBackendObs(x.h, ss, cs, terms, satVars)
	x.h.Flush()
}

// SeedRoot schedules the empty prefix — the whole path tree.
func (x *Explorer) SeedRoot() { x.w.addRoot() }

// AddPrefix schedules an imported subtree root.
func (x *Explorer) AddPrefix(prefix []Step, sig Sig) { x.w.addPrefix(prefix, sig) }

// Pending returns the number of scheduled, unexplored subtree roots.
func (x *Explorer) Pending() int { return x.w.pending() }

// SetBound discards present and future work ordered strictly after sig.
func (x *Explorer) SetBound(sig Sig) { x.w.setBound(sig) }

// Pruned reports whether any work was discarded by a bound.
func (x *Explorer) Pruned() bool { return x.w.pruned }

// Handoff removes the oldest (shallowest, hence largest-subtree) frontier
// node and exports it in portable form for another shard.
func (x *Explorer) Handoff() ([]Step, Sig, bool) {
	if len(x.w.frontier) == 0 {
		return nil, "", false
	}
	n := x.w.frontier[0]
	x.w.frontier = x.w.frontier[1:]
	return x.w.export(n, x.ctx), n.sig, true
}

// Step explores one path using the given pop order (a parallel
// orchestrator's seed phase overrides the configured strategy with BFS to
// widen the frontier), classifies its outcome and schedules the unexplored
// siblings of its fresh decisions. It returns false when the frontier is
// empty or fully pruned. Step is the only code that runs a path.
func (x *Explorer) Step(order SearchStrategy) (PathRecord, bool) {
	n := x.w.pop(order, &x.rng)
	if n == nil {
		return PathRecord{}, false
	}

	sp := x.h.Start(obs.PhasePath)
	if !x.w.trackSigs {
		// Sequential start order is the canonical path index; a shard's
		// is not, so its spans stay untagged.
		sp.SetPath(x.paths)
	}
	x.paths++
	x.st = Stats{}
	eng := &x.eng
	eng.reset(x.ctx, x.sol, x.w.materialize(n), n.imported, &x.st, x.qc, &x.onPath)
	eng.noOpt = x.opts.NoBranchOptimizations
	eng.h = x.h
	err, abort := runOne(x.run, eng)

	rec := PathRecord{Instructions: eng.instrRetired, Cycles: eng.cycles}
	if x.w.trackSigs {
		rec.Sig = x.w.pathSig(n, eng.onPath.fresh)
	}
	schedule := true
	switch {
	case abort != nil && abort.reason == AbortInfeasible:
		rec.Kind = PathInfeasible
		schedule = false // no fresh decisions to fork from
	case abort != nil:
		rec.Kind = PathPartial
	case errors.Is(err, ErrStopExploration):
		rec.Kind = PathStopped
		schedule = false // the exploration ends here
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
		if x.opts.GenerateTests {
			rec.Inputs, _ = eng.PathModel()
		}
	}
	// The deltas are read after classification, so witness and test-vector
	// model queries count towards their path.
	rec.Branches = x.st.Branches
	rec.Concretizations = x.st.Concretizations
	rec.SolverQueries = x.st.SolverQueries

	if schedule {
		// Every scheduled sibling flips a taken-true decision to false, so
		// all children order strictly after this path's Sig — scheduling
		// after a min-Sig finding is harmless under a bound (everything gets
		// pruned).
		x.w.schedule(n, eng.onPath.fresh)
	}
	sp.End()
	return rec, true
}
