package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/qstore"
	"symriscv/internal/rvfi"
	"symriscv/internal/sat"
)

// BenchOptions configure the exploration benchmark (symv bench).
type BenchOptions struct {
	// Common carries the shared options. Workers is the parallel column
	// compared against workers=1 (defaults to GOMAXPROCS, floored at 2 so
	// the sharded orchestrator is always exercised even on a single-core
	// host); Budget bounds each throughput measurement (default 10s); the
	// Cache / Rewrite toggles apply to every measurement (symv bench
	// -cache=off -rewrite=off).
	Common
	// HuntTime bounds each per-fault time-to-bug measurement (default 30s).
	HuntTime time.Duration
	// Faults are the time-to-bug targets (default E1, E5, E6 — a cheap, a
	// mid-cost and an expensive bug per Table II).
	Faults []faults.Fault
	// InstrLimit / NumRegs fix the throughput workload (defaults 1 and 2,
	// the longrun configuration).
	InstrLimit int
	NumRegs    int
	// CacheAblation additionally runs the bounded cache-on/cache-off
	// equivalence check (always on under symv bench -quick): the same
	// path-bounded workload must report identical paths, engine queries and
	// findings with the elimination layer on and off.
	CacheAblation bool
	// AblationMaxPaths bounds the equivalence workload (default 400 paths).
	AblationMaxPaths int
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Workers <= 1 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.Budget == 0 {
		o.Budget = 10 * time.Second
	}
	if o.HuntTime == 0 {
		o.HuntTime = 30 * time.Second
	}
	if o.Faults == nil {
		o.Faults = []faults.Fault{faults.E1, faults.E5, faults.E6}
	}
	if o.InstrLimit == 0 {
		o.InstrLimit = 1
	}
	if o.NumRegs == 0 {
		o.NumRegs = 2
	}
	if o.AblationMaxPaths == 0 {
		o.AblationMaxPaths = 400
	}
	return o
}

// BenchThroughput is one budgeted comprehensive-exploration measurement.
type BenchThroughput struct {
	Workers int
	// InstrLimit is this row's workload depth; Fork records whether fork-point
	// checkpointing was active for the row.
	InstrLimit     int
	Fork           bool
	Paths          int
	Completed      int
	Instructions   uint64
	SolverQueries  uint64
	ElapsedSeconds float64
	PathsPerSec    float64
	QueriesPerSec  float64
	// Speedup is this row's paths/sec relative to the same-limit workers=1
	// row with the same fork setting (the parallel-scaling column).
	Speedup float64
	// ForkSpeedup is this row's paths/sec relative to the same-limit
	// same-workers fork-off row (what checkpointing buys); 0 when no such
	// row was measured.
	ForkSpeedup float64

	// Fork-point checkpointing telemetry: snapshots captured, sibling paths
	// resumed from one, and prefix events those resumes did not replay.
	ForkSnapshots     uint64
	ForkResumes       uint64
	ReplayEventsSaved uint64

	// Query-elimination telemetry: how many engine queries reached the SAT
	// core and how the rest were answered (see internal/querycache).
	CDCLQueries    uint64
	Eliminated     uint64
	StackHits      uint64
	ExactHits      uint64
	SubsetSat      uint64
	SupersetUnsat  uint64
	SlicedQueries  uint64
	SlicedDropped  uint64
	RewriteHits    uint64
	SolverUnknowns uint64
	// StoreHits counts eliminations answered by entries that came from the
	// persistent store (symv -store); zero without one or on a cold store.
	StoreHits uint64

	// SAT-core internals (summed over all workers' solvers): how much work
	// the CDCL search itself did.
	SAT sat.Stats
}

// fillTelemetry copies the query-elimination counters out of a report.
func (t *BenchThroughput) fillTelemetry(s core.Stats) {
	t.CDCLQueries = s.CDCLQueries
	t.Eliminated = s.Cache.Eliminated()
	t.StackHits = s.Cache.StackHits
	t.ExactHits = s.Cache.ExactHits
	t.SubsetSat = s.Cache.SubsetSat
	t.SupersetUnsat = s.Cache.SupersetUnsat
	t.SlicedQueries = s.Cache.SlicedQueries
	t.SlicedDropped = s.Cache.SlicedDropped
	t.RewriteHits = s.RewriteHits
	t.SolverUnknowns = s.SolverUnknowns
	t.StoreHits = s.Cache.StoreHits
	t.SAT = s.SAT
	t.ForkSnapshots = s.ForkSnapshots
	t.ForkResumes = s.ForkResumes
	t.ReplayEventsSaved = s.ReplayEventsSaved
}

// BenchHunt is one per-fault time-to-bug measurement.
type BenchHunt struct {
	Fault         string
	Workers       int
	Found         bool
	TimeToBugSecs float64
	Paths         int
	SolverQueries uint64
	CDCLQueries   uint64
	Eliminated    uint64
}

// BenchAblation is the bounded cache-on/cache-off equivalence check: the same
// MaxPaths-bounded workload, explored sequentially with and without the
// query-elimination layer, must report identical paths, engine queries and
// findings (the determinism contract), while the CDCL counts quantify what
// the layer removes.
type BenchAblation struct {
	MaxPaths int
	Match    bool
	Mismatch string `json:",omitempty"`

	Paths         int
	Completed     int
	Findings      int
	SolverQueries uint64
	CDCLOn        uint64
	CDCLOff       uint64
	// ReductionPct is the share of SAT-core queries the layer removed.
	ReductionPct float64
	// StoreHits counts cache-on eliminations answered from the persistent
	// store. On a warm store the bounded cache-on run re-answers prior
	// campaigns' queries without the SAT core, so CDCLOn drops below a cold
	// run's while every deterministic field stays identical.
	StoreHits uint64
}

// BenchSolverConfig is one row of the solver-equivalence matrix: the same
// bounded workload explored at one worker count, with or without fork-point
// checkpointing.
type BenchSolverConfig struct {
	Name    string
	Workers int
	Fork    bool

	Paths         int
	Completed     int
	Infeasible    int
	Findings      int
	SolverQueries uint64
	CDCLQueries   uint64
	SAT           sat.Stats
}

// BenchSolverAblation is the worker and fork equivalence check: the bounded
// workload must report identical deterministic fields (paths, engine
// queries, findings) at workers 1, 2 and 4, with fork-point checkpointing on
// and off — each worker's solver only ever changes how fast answers arrive,
// never which answers.
type BenchSolverAblation struct {
	MaxPaths int
	Match    bool
	Mismatch string `json:",omitempty"`
	Configs  []BenchSolverConfig
}

// BenchReport is the JSON document emitted by symv bench.
type BenchReport struct {
	GOMAXPROCS int
	NumCPU     int
	BudgetSecs float64
	InstrLimit int
	NumRegs    int
	// CacheOff / RewriteOff record the ablation state the measurements ran
	// under (symv bench -cache=off -rewrite=off).
	CacheOff   bool `json:",omitempty"`
	RewriteOff bool `json:",omitempty"`
	Throughput []BenchThroughput
	Hunts      []BenchHunt
	Ablation   *BenchAblation       `json:",omitempty"`
	SolverMat  *BenchSolverAblation `json:",omitempty"`
	// Store summarises the persistent witness store session (symv bench
	// -store DIR): entries loaded/persisted and damage skipped. Telemetry
	// only — never part of determinism comparisons.
	Store *qstore.SessionStats `json:",omitempty"`
}

// RunBench measures exploration throughput (paths/sec, solver queries/sec on
// the longrun workload) and per-fault time-to-bug (the Table II cell) at
// workers=1 and workers=N, quantifying what the sharded orchestrator buys on
// this machine.
func RunBench(opt BenchOptions) *BenchReport {
	opt = opt.withDefaults()
	rep := &BenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		BudgetSecs: opt.Budget.Seconds(),
		InstrLimit: opt.InstrLimit,
		NumRegs:    opt.NumRegs,
		CacheOff:   opt.Cache.Disabled(),
		RewriteOff: opt.Rewrite.Disabled(),
	}

	// Throughput matrix: per instruction limit, a workers=1 fork-off row, a
	// workers=1 fork-on row (ForkSpeedup = what checkpointing buys at equal
	// parallelism) and a workers=N fork-on row (Speedup = parallel scaling on
	// top). Limit 2 always rides along when the base limit is shallower: the
	// replayed prefixes are longest there, so it is where checkpointing shows.
	limits := []int{opt.InstrLimit}
	if opt.InstrLimit != 2 {
		limits = append(limits, 2)
	}
	for _, limit := range limits {
		type leg struct {
			workers int
			forkOff bool
		}
		for _, l := range []leg{{1, true}, {1, false}, {opt.Workers, false}} {
			cfg := cosim.Config{
				ISS:             iss.VPConfig(),
				Core:            microrv32.ShippedConfig(),
				InstrLimit:      limit,
				NumSymbolicRegs: opt.NumRegs,
			}
			c := opt.Common
			c.Workers = l.workers
			if l.forkOff {
				c.Fork = Off
			}
			r := c.explore(cosim.RunFunc(cfg), core.Options{MaxTime: opt.Budget})
			row := BenchThroughput{
				Workers:        l.workers,
				InstrLimit:     limit,
				Fork:           !(l.forkOff || c.Fork.Disabled()),
				Paths:          r.Stats.Paths,
				Completed:      r.Stats.Completed,
				Instructions:   r.Stats.Instructions,
				SolverQueries:  r.Stats.SolverQueries,
				ElapsedSeconds: r.Stats.Elapsed.Seconds(),
			}
			row.fillTelemetry(r.Stats)
			if row.ElapsedSeconds > 0 {
				row.PathsPerSec = float64(row.Paths) / row.ElapsedSeconds
				row.QueriesPerSec = float64(row.SolverQueries) / row.ElapsedSeconds
			}
			row.Speedup = 1
			if base := findThroughput(rep.Throughput, limit, 1, row.Fork); base != nil && base.PathsPerSec > 0 {
				row.Speedup = row.PathsPerSec / base.PathsPerSec
			}
			if base := findThroughput(rep.Throughput, limit, row.Workers, false); base != nil && base.PathsPerSec > 0 && row.Fork {
				row.ForkSpeedup = row.PathsPerSec / base.PathsPerSec
			}
			rep.Throughput = append(rep.Throughput, row)
		}
	}

	for _, f := range opt.Faults {
		for _, w := range []int{1, opt.Workers} {
			coreCfg := microrv32.FixedConfig()
			coreCfg.Faults = faults.Only(f)
			cfg := cosim.Config{
				ISS:        iss.FixedConfig(),
				Core:       coreCfg,
				Filter:     cosim.BlockSystemInstructions,
				InstrLimit: opt.InstrLimit,
			}
			c := opt.Common
			c.Workers = w
			t0 := time.Now()
			r := c.explore(cosim.RunFunc(cfg), core.Options{
				StopOnFirstFinding: true,
				MaxTime:            opt.HuntTime,
			})
			rep.Hunts = append(rep.Hunts, BenchHunt{
				Fault:         f.String(),
				Workers:       w,
				Found:         len(r.Findings) > 0,
				TimeToBugSecs: time.Since(t0).Seconds(),
				Paths:         r.Stats.Paths,
				SolverQueries: r.Stats.SolverQueries,
				CDCLQueries:   r.Stats.CDCLQueries,
				Eliminated:    r.Stats.Cache.Eliminated(),
			})
		}
	}

	if opt.CacheAblation {
		rep.Ablation = runCacheAblation(opt)
		rep.SolverMat = runSolverAblation(opt)
	}
	if opt.Store != nil {
		st := opt.Store.Stats()
		rep.Store = &st
	}
	return rep
}

// runSolverAblation explores the bounded equivalence workload at every
// worker count of the matrix, fork on and off, and cross-checks the
// deterministic report contract against the workers=1 defaults (same
// comparison set as the cache ablation: path counts, engine query counts,
// findings by path and class).
func runSolverAblation(opt BenchOptions) *BenchSolverAblation {
	cfg := cosim.Config{
		ISS:             iss.VPConfig(),
		Core:            microrv32.ShippedConfig(),
		InstrLimit:      opt.InstrLimit,
		NumSymbolicRegs: opt.NumRegs,
	}
	bounded := core.Options{MaxPaths: opt.AblationMaxPaths, Obs: opt.Obs}
	if opt.Store != nil {
		bounded.SharedCache = opt.Store.Shared()
	}

	type variant struct {
		name    string
		workers int
		noFork  bool
	}
	// The fork-off rows double as the in-process fork-checkpointing
	// equivalence check: the same bounded workload must report identical
	// deterministic fields whether siblings resume from snapshots or replay
	// their full decision prefix, sequentially and sharded.
	variants := []variant{
		{"defaults w1", 1, false},
		{"defaults w2", 2, false},
		{"defaults w4", 4, false},
		{"fork-off w1", 1, true},
		{"fork-off w2", 2, true},
		{"fork-off w4", 4, true},
	}

	mat := &BenchSolverAblation{MaxPaths: opt.AblationMaxPaths, Match: true}
	fail := func(format string, args ...any) {
		mat.Match = false
		if mat.Mismatch == "" {
			mat.Mismatch = fmt.Sprintf(format, args...)
		}
	}
	var base *core.Report
	var baseFindings []string
	for _, v := range variants {
		o := bounded
		// A global -fork off pins every row to replay (the fork-off rows then
		// check plain worker-count equivalence instead of resume-vs-replay).
		o.NoFork = v.noFork || opt.Fork.Disabled()
		r := exploreWorkers(cosim.RunFunc(cfg), o, v.workers)
		mat.Configs = append(mat.Configs, BenchSolverConfig{
			Name:          v.name,
			Workers:       v.workers,
			Fork:          !o.NoFork,
			Paths:         r.Stats.Paths,
			Completed:     r.Stats.Completed,
			Infeasible:    r.Stats.Infeasible,
			Findings:      len(r.Findings),
			SolverQueries: r.Stats.SolverQueries,
			CDCLQueries:   r.Stats.CDCLQueries,
			SAT:           r.Stats.SAT,
		})
		keys := make([]string, len(r.Findings))
		for i, f := range r.Findings {
			keys[i] = fmt.Sprintf("path %d: %s", f.Path, findingClass(f.Err))
		}
		opt.Store.Checkpoint()
		if base == nil {
			base, baseFindings = r, keys
			continue
		}
		if r.Stats.Paths != base.Stats.Paths {
			fail("%s: paths differ: %d vs %d", v.name, r.Stats.Paths, base.Stats.Paths)
		}
		if r.Stats.Completed != base.Stats.Completed {
			fail("%s: completed paths differ: %d vs %d", v.name, r.Stats.Completed, base.Stats.Completed)
		}
		if r.Stats.Infeasible != base.Stats.Infeasible {
			fail("%s: infeasible counts differ: %d vs %d", v.name, r.Stats.Infeasible, base.Stats.Infeasible)
		}
		if r.Stats.SolverQueries != base.Stats.SolverQueries {
			fail("%s: engine query counts differ: %d vs %d", v.name, r.Stats.SolverQueries, base.Stats.SolverQueries)
		}
		if len(keys) != len(baseFindings) {
			fail("%s: finding counts differ: %d vs %d", v.name, len(keys), len(baseFindings))
			continue
		}
		for i := range keys {
			if keys[i] != baseFindings[i] {
				fail("%s: finding %d differs: %s vs %s", v.name, i, keys[i], baseFindings[i])
				break
			}
		}
	}
	return mat
}

// runCacheAblation runs the bounded equivalence workload twice (elimination
// layer on, then off) and cross-checks the deterministic report contract.
// The shared Cache toggle and Budget deliberately do not apply: the check is
// about the on/off pair, and a wall-time bound would make the two bounded
// workloads diverge on a loaded machine.
func runCacheAblation(opt BenchOptions) *BenchAblation {
	cfg := cosim.Config{
		ISS:             iss.VPConfig(),
		Core:            microrv32.ShippedConfig(),
		InstrLimit:      opt.InstrLimit,
		NumSymbolicRegs: opt.NumRegs,
	}
	bounded := core.Options{MaxPaths: opt.AblationMaxPaths, Obs: opt.Obs}
	onOpts := bounded
	if opt.Store != nil {
		// The cache-on leg attaches to the persistent store: on a warm store
		// it re-answers prior campaigns' queries without the SAT core, which
		// is exactly what CDCLOn measures. The cache-off leg never touches it.
		onOpts.SharedCache = opt.Store.Shared()
	}
	on := exploreWorkers(cosim.RunFunc(cfg), onOpts, 1)
	opt.Store.Checkpoint()
	offOpts := bounded
	offOpts.NoQueryCache = true
	off := exploreWorkers(cosim.RunFunc(cfg), offOpts, 1)

	ab := &BenchAblation{
		MaxPaths:      opt.AblationMaxPaths,
		Match:         true,
		Paths:         on.Stats.Paths,
		Completed:     on.Stats.Completed,
		Findings:      len(on.Findings),
		SolverQueries: on.Stats.SolverQueries,
		CDCLOn:        on.Stats.CDCLQueries,
		CDCLOff:       off.Stats.CDCLQueries,
		StoreHits:     on.Stats.Cache.StoreHits,
	}
	if ab.CDCLOff > 0 {
		ab.ReductionPct = 100 * float64(ab.CDCLOff-ab.CDCLOn) / float64(ab.CDCLOff)
	}

	fail := func(format string, args ...any) {
		ab.Match = false
		if ab.Mismatch == "" {
			ab.Mismatch = fmt.Sprintf(format, args...)
		}
	}
	if on.Stats.Paths != off.Stats.Paths {
		fail("paths differ: cache-on %d, cache-off %d", on.Stats.Paths, off.Stats.Paths)
	}
	if on.Stats.Completed != off.Stats.Completed {
		fail("completed paths differ: cache-on %d, cache-off %d", on.Stats.Completed, off.Stats.Completed)
	}
	if on.Stats.Infeasible != off.Stats.Infeasible {
		fail("infeasible counts differ: cache-on %d, cache-off %d", on.Stats.Infeasible, off.Stats.Infeasible)
	}
	if on.Stats.SolverQueries != off.Stats.SolverQueries {
		fail("engine query counts differ: cache-on %d, cache-off %d", on.Stats.SolverQueries, off.Stats.SolverQueries)
	}
	if len(on.Findings) != len(off.Findings) {
		fail("finding counts differ: cache-on %d, cache-off %d", len(on.Findings), len(off.Findings))
	} else {
		for i := range on.Findings {
			a, b := on.Findings[i], off.Findings[i]
			// Witness values are any-model (they depend on solver internals,
			// not cache state), so findings compare by path index and mismatch
			// class — the same contract the parexplore equivalence tests use.
			if a.Path != b.Path || findingClass(a.Err) != findingClass(b.Err) {
				fail("finding %d differs: cache-on (path %d) %s, cache-off (path %d) %s",
					i, a.Path, findingClass(a.Err), b.Path, findingClass(b.Err))
				break
			}
		}
	}
	return ab
}

// findingClass maps a finding to its deterministic comparison key: the
// mismatch classification for co-simulation voter findings, the rendered
// error otherwise.
func findingClass(err error) string {
	var m *rvfi.Mismatch
	if errors.As(err, &m) {
		return ClassifyFor(cosim.CoreMicroRV32, m).Key()
	}
	return err.Error()
}

// findThroughput returns the already-measured row for (limit, workers, fork)
// — the speedup baselines of the throughput matrix — or nil.
func findThroughput(rows []BenchThroughput, limit, workers int, fork bool) *BenchThroughput {
	for i := range rows {
		r := &rows[i]
		if r.InstrLimit == limit && r.Workers == workers && r.Fork == fork {
			return r
		}
	}
	return nil
}

// Format renders the benchmark report as a human-readable table.
func (r *BenchReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Exploration benchmark (GOMAXPROCS=%d, %d CPU, longrun workload: limit %d, %d symbolic regs, %.0fs/point)\n",
		r.GOMAXPROCS, r.NumCPU, r.InstrLimit, r.NumRegs, r.BudgetSecs)
	if r.CacheOff || r.RewriteOff {
		fmt.Fprintf(&b, "ablation: cache=%s rewrite=%s\n", onOff(!r.CacheOff), onOff(!r.RewriteOff))
	}
	fmt.Fprintf(&b, "%-6s %-5s %-5s %8s %10s %12s %10s %10s %12s %8s %8s\n",
		"Limit", "Work", "Fork", "Paths", "Complete", "Queries", "CDCL", "Elim", "Paths/s", "Speedup", "ForkSpd")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 104))
	for _, t := range r.Throughput {
		forkSpd := "      -"
		if t.ForkSpeedup > 0 {
			forkSpd = fmt.Sprintf("%7.2fx", t.ForkSpeedup)
		}
		fmt.Fprintf(&b, "%-6d %-5d %-5s %8d %10d %12d %10d %10d %12.1f %7.2fx %s\n",
			t.InstrLimit, t.Workers, onOff(t.Fork), t.Paths, t.Completed, t.SolverQueries,
			t.CDCLQueries, t.Eliminated, t.PathsPerSec, t.Speedup, forkSpd)
	}
	for _, t := range r.Throughput {
		fmt.Fprintf(&b, "  cache l=%d w=%d fork=%s: stack=%d exact=%d subset=%d superset=%d sliced=%d(-%d) rewrites=%d unknowns=%d store=%d\n",
			t.InstrLimit, t.Workers, onOff(t.Fork), t.StackHits, t.ExactHits, t.SubsetSat, t.SupersetUnsat,
			t.SlicedQueries, t.SlicedDropped, t.RewriteHits, t.SolverUnknowns, t.StoreHits)
	}
	for _, t := range r.Throughput {
		s := t.SAT
		fmt.Fprintf(&b, "  sat   l=%d w=%d fork=%s: props=%d conflicts=%d decisions=%d restarts=%d learnt=%d(-%d)\n",
			t.InstrLimit, t.Workers, onOff(t.Fork), s.Propagations, s.Conflicts, s.Decisions, s.Restarts,
			s.Learnt, s.Removed)
	}
	for _, t := range r.Throughput {
		if t.ForkSnapshots == 0 && t.ForkResumes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  fork  l=%d w=%d: snapshots=%d resumes=%d replay-events-saved=%d\n",
			t.InstrLimit, t.Workers, t.ForkSnapshots, t.ForkResumes, t.ReplayEventsSaved)
	}
	if len(r.Hunts) > 0 {
		b.WriteString("\nTime-to-bug (matched baseline + injected fault, stop on first finding)\n")
		fmt.Fprintf(&b, "%-7s %-8s %-6s %12s %8s %12s %10s %10s\n",
			"Fault", "Workers", "Found", "Time", "Paths", "Queries", "CDCL", "Elim")
		fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
		for _, h := range r.Hunts {
			found := "no"
			if h.Found {
				found = "yes"
			}
			fmt.Fprintf(&b, "%-7s %-8d %-6s %11.2fs %8d %12d %10d %10d\n",
				h.Fault, h.Workers, found, h.TimeToBugSecs, h.Paths, h.SolverQueries, h.CDCLQueries, h.Eliminated)
		}
	}
	if a := r.Ablation; a != nil {
		verdict := "MATCH"
		if !a.Match {
			verdict = "MISMATCH: " + a.Mismatch
		}
		fmt.Fprintf(&b, "\nCache ablation (MaxPaths=%d, workers=1): %s\n", a.MaxPaths, verdict)
		fmt.Fprintf(&b, "  paths=%d completed=%d findings=%d engine queries=%d\n",
			a.Paths, a.Completed, a.Findings, a.SolverQueries)
		fmt.Fprintf(&b, "  SAT-core queries: %d (cache off) -> %d (cache on), %.1f%% eliminated\n",
			a.CDCLOff, a.CDCLOn, a.ReductionPct)
		if a.StoreHits > 0 {
			fmt.Fprintf(&b, "  store hits: %d\n", a.StoreHits)
		}
	}
	if m := r.SolverMat; m != nil {
		verdict := "MATCH"
		if !m.Match {
			verdict = "MISMATCH: " + m.Mismatch
		}
		fmt.Fprintf(&b, "\nSolver equivalence matrix (MaxPaths=%d): %s\n", m.MaxPaths, verdict)
		for _, c := range m.Configs {
			fmt.Fprintf(&b, "  %-12s w=%d fork=%s: paths=%d completed=%d findings=%d queries=%d cdcl=%d conflicts=%d\n",
				c.Name, c.Workers, onOff(c.Fork),
				c.Paths, c.Completed, c.Findings, c.SolverQueries, c.CDCLQueries, c.SAT.Conflicts)
		}
	}
	if r.Store != nil {
		fmt.Fprintf(&b, "\n%s\n", r.Store.Summary())
	}
	return b.String()
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}
