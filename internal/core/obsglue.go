package core

import (
	"symriscv/internal/obs"
	"symriscv/internal/querycache"
	"symriscv/internal/solver"
)

// Registry names for the absorbed exploration counters. The explore.*
// family mirrors the deterministic Stats fields, solver.* the SAT facade,
// cache.* the query-elimination hit kinds. smt.terms and sat.vars are
// gauges (per-context sizes, merged by max across workers).
const (
	CtrPaths           = "explore.paths"
	CtrCompleted       = "explore.completed"
	CtrPartial         = "explore.partial"
	CtrInfeasible      = "explore.infeasible"
	CtrInstructions    = "explore.instructions"
	CtrCycles          = "explore.cycles"
	CtrBranches        = "explore.branches"
	CtrConcretizations = "explore.concretizations"
	CtrImplied         = "explore.implied"
	CtrQueries         = "explore.queries"

	CtrSolverChecks = "solver.checks"
	CtrSolverSat    = "solver.sat"
	CtrSolverUnsat  = "solver.unsat"

	CtrCacheQueries       = "cache.queries"
	CtrCacheStackHits     = "cache.stack_hits"
	CtrCacheExactHits     = "cache.exact_hits"
	CtrCacheCDCL          = "cache.cdcl"
	CtrCacheModelQueries  = "cache.model_queries"
	CtrCacheSliced        = "cache.sliced"
	CtrCacheSlicedDropped = "cache.sliced_dropped"
	CtrCacheEliminated    = "cache.eliminated"
	CtrCacheStoreHits     = "cache.store_hits"

	GaugeTerms   = "smt.terms"
	GaugeSATVars = "sat.vars"
)

// PublishExploreObs absorbs the deterministic Stats fields of a finished
// exploration (the explore.* counter family) into the handle's registry
// shard; the caller flushes. Explore publishes its report through this and a
// parallel orchestrator its merged one, while every Explorer publishes its
// own backend counters in Finish: summing per-shard path deltas would
// double-count replay work moved across hand-offs.
func PublishExploreObs(h *obs.Handle, st Stats) {
	if h == nil {
		return
	}
	h.Add(CtrPaths, uint64(st.Paths))
	h.Add(CtrCompleted, uint64(st.Completed))
	h.Add(CtrPartial, uint64(st.Partial))
	h.Add(CtrInfeasible, uint64(st.Infeasible))
	h.Add(CtrInstructions, st.Instructions)
	h.Add(CtrCycles, st.Cycles)
	h.Add(CtrBranches, st.Branches)
	h.Add(CtrConcretizations, st.Concretizations)
	h.Add(CtrImplied, st.Implied)
	h.Add(CtrQueries, st.SolverQueries)
}

// publishBackendObs absorbs the solver-facade and query-cache counters plus
// the context-size gauges — the per-backend share of the registry, published
// once per solver context by Explorer.Finish.
func publishBackendObs(h *obs.Handle, ss solver.Stats, cs querycache.Stats, terms, satVars int) {
	if h == nil {
		return
	}
	h.Add(CtrSolverChecks, ss.Checks)
	h.Add(CtrSolverSat, ss.SatAns)
	h.Add(CtrSolverUnsat, ss.UnsatAns)

	h.Add(CtrCacheQueries, cs.Queries)
	h.Add(CtrCacheStackHits, cs.StackHits)
	h.Add(CtrCacheExactHits, cs.ExactHits)
	h.Add(CtrCacheCDCL, cs.CDCL)
	h.Add(CtrCacheModelQueries, cs.ModelQueries)
	h.Add(CtrCacheSliced, cs.SlicedQueries)
	h.Add(CtrCacheSlicedDropped, cs.SlicedDropped)
	h.Add(CtrCacheEliminated, cs.Eliminated())
	h.Add(CtrCacheStoreHits, cs.StoreHits)

	h.Gauge(GaugeTerms, uint64(terms))
	h.Gauge(GaugeSATVars, uint64(satVars))
}
