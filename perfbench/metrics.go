package main

import (
	"time"

	"symriscv/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"paths_per_cpu_s", "1/s"},
	{"time_to_bug_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the ledger of a traced run (--trace 1). Counts repeat bit
// for bit at workers=1; *_ms values are span self times of the traced
// passes. A layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"core.paths", "count"},
	{"core.branches", "count"},
	{"core.concretizations", "count"},
	{"core.cycles", "count"},
	{"core.path_ms", "ms"},
	{"fork.snapshots", "count"},
	{"fork.resumes", "count"},
	{"fork.events_saved", "count"},
	{"smt.terms", "count"},
	{"smt.rewrite_hits", "count"},
	{"solver.queries", "count"},
	{"solver.cdcl", "count"},
	{"solver.sat_vars", "count"},
	{"solver.check_ms", "ms"},
	{"solver.us_per_cdcl", "us"},
	{"sat.propagations", "count"},
	{"sat.decisions", "count"},
	{"sat.conflicts", "count"},
	{"sat.props_per_cdcl", "count"},
	{"qc.probes", "count"},
	{"qc.eliminated", "count"},
	{"qc.elim_ratio", "ratio"},
	{"qc.stack_hits", "count"},
	{"qc.superset_unsat", "count"},
	{"qc.subset_sat", "count"},
	{"qc.model_queries", "count"},
	{"qc.probe_ms", "ms"},
	{"rtl.steps", "count"},
	{"rtl.step_ms", "ms"},
	{"iss.steps", "count"},
	{"iss.step_ms", "ms"},
	{"rvfi.compares", "count"},
	{"rvfi.compare_ms", "ms"},
	{"hunt.found", "count"},
	{"hunt.paths_to_bug", "count"},
	{"hunt.instr_to_bug", "count"},
	{"par.busy_ratio", "ratio"},
	{"par.idle_ms", "ms"},
	{"par.cpu_per_wall", "ratio"},
	{"store.open_ms", "ms"},
	{"store.loaded", "count"},
	{"store.hits", "count"},
	{"store.checkpoint_ms", "ms"},
	{"store.persisted", "count"},
	{"store.bytes", "bytes"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func ms(ns uint64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics sums one pass's work counters over its explorations. They
// come from the reports (core.Stats, querycache.Stats, sat.Stats) and the
// store session, never from the trace, so traced and untraced passes can
// be compared.
func countMetrics(p pass, hunt bool) map[string]float64 {
	m := make(map[string]float64)
	for _, o := range p.ops {
		s := o.out.Stats
		m["core.paths"] += float64(s.Paths)
		m["core.branches"] += float64(s.Branches)
		m["core.concretizations"] += float64(s.Concretizations)
		m["core.cycles"] += float64(s.Cycles)
		m["fork.snapshots"] += float64(s.ForkSnapshots)
		m["fork.resumes"] += float64(s.ForkResumes)
		m["fork.events_saved"] += float64(s.ReplayEventsSaved)
		m["smt.terms"] += float64(s.TermCount)
		m["smt.rewrite_hits"] += float64(s.RewriteHits)
		m["solver.queries"] += float64(s.SolverQueries)
		m["solver.cdcl"] += float64(s.CDCLQueries)
		m["solver.sat_vars"] += float64(s.SATVars)
		m["sat.propagations"] += float64(s.SAT.Propagations)
		m["sat.decisions"] += float64(s.SAT.Decisions)
		m["sat.conflicts"] += float64(s.SAT.Conflicts)
		m["qc.probes"] += float64(s.Cache.Queries)
		m["qc.eliminated"] += float64(s.Cache.Eliminated())
		m["qc.stack_hits"] += float64(s.Cache.StackHits)
		m["qc.superset_unsat"] += float64(s.Cache.SupersetUnsat)
		m["qc.subset_sat"] += float64(s.Cache.SubsetSat)
		m["qc.model_queries"] += float64(s.Cache.ModelQueries)
		m["store.hits"] += float64(s.Cache.StoreHits)
		if hunt && len(o.out.Findings) > 0 {
			m["hunt.found"]++
			m["hunt.paths_to_bug"] += float64(s.Paths)
			m["hunt.instr_to_bug"] += float64(s.Instructions)
		}
	}
	m["sat.props_per_cdcl"] = ratio(m["sat.propagations"], m["solver.cdcl"])
	m["qc.elim_ratio"] = ratio(m["qc.eliminated"], m["qc.probes"])
	m["store.loaded"] = float64(p.store.stats.Loaded)
	m["store.persisted"] = float64(p.store.stats.Persisted)
	m["store.bytes"] = float64(p.store.bytes)
	return m
}

// layerSample is the ledger of one untraced/traced pass pair: counters and
// Go runtime figures from the untraced pass u, self times from the traced
// pass t and its trace l.
func layerSample(u, t pass, l ledger, workers int, hunt bool) map[string]float64 {
	m := countMetrics(u, hunt)
	self := func(phase string) float64 { return ms(l.phases[phase].SelfNs) }
	m["core.path_ms"] = self(obs.PhasePath)
	m["solver.check_ms"] = self(obs.PhaseSolverCheck)
	m["solver.us_per_cdcl"] = ratio(1000*m["solver.check_ms"], m["solver.cdcl"])
	m["qc.probe_ms"] = self(obs.PhaseCacheProbe)
	m["rtl.step_ms"] = self(obs.PhaseRTLStep)
	m["rtl.steps"] = float64(l.phases[obs.PhaseRTLStep].Count)
	m["iss.step_ms"] = self(obs.PhaseISSStep)
	m["iss.steps"] = float64(l.phases[obs.PhaseISSStep].Count)
	m["rvfi.compare_ms"] = self(obs.PhaseVoterCompare)
	m["rvfi.compares"] = float64(l.phases[obs.PhaseVoterCompare].Count)

	// Worker capacity is workers × explore wall; path spans are the busy part.
	capacity := float64(workers) * float64(l.phases[obs.PhaseExplore].DurNs)
	busy := float64(l.phases[obs.PhasePath].DurNs)
	m["par.busy_ratio"] = ratio(busy, capacity)
	m["par.idle_ms"] = (capacity - busy) / 1e6
	m["par.cpu_per_wall"] = ratio(u.cpu.Seconds(), u.wall.Seconds())

	m["store.open_ms"] = float64(t.store.open) / float64(time.Millisecond)
	m["store.checkpoint_ms"] = float64(t.store.checkpoint) / float64(time.Millisecond)

	m["go.alloc_mb"] = u.gorun.allocBytes / (1 << 20)
	m["go.mallocs"] = u.gorun.mallocs
	m["go.gc_cycles"] = u.gorun.gcCycles
	m["go.gc_cpu_ms"] = u.gorun.gcCPUSeconds * 1000
	m["trace.overhead_pct"] = 100 * (ratio(t.cpu.Seconds(), u.cpu.Seconds()) - 1)
	return m
}
