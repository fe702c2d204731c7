package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/harness"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/obs"
	"symriscv/internal/parexplore"
	"symriscv/internal/pipecore"
	"symriscv/internal/qstore"
	"symriscv/internal/smt"
)

// Fixed work per pass. The gates below pin the outcome of each amount.
const (
	exhaustPaths     = 3647 // whole limit-1 tree of the as-shipped microrv32
	exhaustCompleted = 2420
	exhaustFindings  = 1227
	deepPaths        = 3000 // DFS path budget of the limit-2 pipecore leg
	prewarmPaths     = 1200 // bounded prefix that warms store-w2's store
	storeWorkers     = 2
	// huntCellBudget bounds one Table II cell, as harness.RunTable2's
	// default PerCellTime does. A cell that hits it has not found its fault
	// and fails the gate.
	huntCellBudget = 60 * time.Second
)

// storeKey is the version key symv longrun uses for this tree, so a store
// warmed by the CLI and one warmed here are interchangeable.
var storeKey = qstore.VersionKey("cmd=longrun", "core=microrv32", "limit=1", "regs=2")

// outcome is the comparable result of one exploration: what the gates, the
// cross-pass checks and the witness replays read. It crosses between the
// benchmark's processes as JSON.
type outcome struct {
	Exhausted bool
	Stats     core.Stats // Elapsed is cleared: it is timing, not outcome
	Vectors   int        // generated test vectors
	Findings  []finding
}

type finding struct {
	Path   int
	Err    string     // the mismatch as reported, witness values included
	Class  string     // the mismatch's witness-independent Table I class
	Inputs smt.MapEnv // the witness
}

func outcomeOf(cfg cosim.Config, rep *core.Report) outcome {
	out := outcome{Exhausted: rep.Exhausted, Stats: rep.Stats, Vectors: len(rep.TestVectors)}
	out.Stats.Elapsed = 0
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, finding{Path: f.Path, Err: f.Err.Error(), Class: findingClass(cfg, f.Err), Inputs: f.Inputs})
	}
	return out
}

// op is one exploration the benchmark ran: a whole pass of a single-tree
// workload, or one hunt cell. It is the unit that is attempted and failed.
type op struct {
	label string
	cfg   cosim.Config // replays this op's witnesses
	out   outcome
	cpu   time.Duration // process CPU from set-up start to the exploration's return
	rss   float64       // peak resident set over the same interval, MiB
}

// pass is one timed run over a workload's fixed work.
type pass struct {
	ops   []op
	wall  time.Duration
	cpu   time.Duration // process user+sys over the pass
	store storeTimes    // zero unless the workload uses a store
	gorun goRuntime     // Go runtime counters accrued over the pass
}

// storeTimes are the qstore session calls timed from outside.
type storeTimes struct {
	open, checkpoint time.Duration
	stats            qstore.SessionStats
	bytes            int64 // store directory size after the pass
}

// bench is the state a workload's passes share. The reference process
// fills it and hands it to each pass process (see main.go).
type bench struct {
	Seed int64
	Dir  string // the run's scratch directory inside the checkout
	// Ref holds the harness API's outcome per op position (exhaust-l1,
	// deep-l2-pipe, store-w2); every timed op must reproduce it.
	Ref []outcome
	// RefCells are harness.RunTable2's hunt cells at pass 0's searcher
	// seed, which pass 0 must reproduce.
	RefCells []harness.Table2Cell
	StoreTpl string // store-w2: the pre-warmed store
}

// workload is one benchmark input: fixed work, a reference run through the
// harness API, and a timed pass.
type workload struct {
	name    string
	workers int
	// hunts is set when the explorations stop at their first finding
	// (Table II cells), which the hunt.* ledger metrics count.
	hunts bool
	// prepare runs once before the reference; it is benchmark preparation,
	// not measured.
	prepare func(b *bench) error
	// reference runs the workload through the harness API (untimed), fills
	// b.Ref / b.RefCells and returns the reference ops and one gate result
	// per exploration run.
	reference func(b *bench) ([]op, []error)
	// run is the index-th pass; rec is nil for timed passes.
	run func(b *bench, index int, rec *obs.Recorder) (pass, error)
	// probe sets the index-th exploration of a pass up the way run does, in
	// a fresh process, and stops it where its first path would begin. It
	// returns the process CPU time spent up to that point.
	probe func(b *bench, index int) (time.Duration, error)
	// prepareProbe, when set, readies the index-th probe untimed.
	prepareProbe func(b *bench, index int) error
	// gate checks the i-th op of the index-th pass.
	gate func(b *bench, index, i int, o op) error
}

var workloads = []workload{
	{name: "exhaust-l1", workers: 1, reference: exhaustReference, run: exhaustPass, probe: probeSequential, gate: exhaustGate},
	{name: "deep-l2-pipe", workers: 1, reference: deepReference, run: deepPass, probe: probeSequential, gate: deepGate},
	{name: "hunt-rand", workers: 1, hunts: true, reference: huntReference, run: huntPass, probe: probeSequential, gate: huntGate},
	{name: "store-w2", workers: storeWorkers, prepare: prewarmStore, reference: exhaustReference, run: storePass,
		probe: probeStore, prepareProbe: copyProbeStore, gate: storeGate},
}

// sharesWitnesses reports whether every pass reproduces the reference's
// witnesses bit for bit, as explorations at workers=1 do. The run then
// replays the reference's witnesses and the passes trust them. At
// workers>1 witness values depend on scheduling: each pass replays its
// own, and the reference only fixes the outcome the passes must match.
func (w workload) sharesWitnesses() bool { return w.workers == 1 }

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exhaustConfig is harness.LongRun's microrv32 workload: the as-shipped core
// against the VP ISS, limit 1, two symbolic registers.
func exhaustConfig() cosim.Config {
	return cosim.Config{InstrLimit: 1, NumSymbolicRegs: 2, ISS: iss.VPConfig(), Core: microrv32.ShippedConfig()}
}

// deepConfig is harness.LongRun's pipecore workload at limit 2: the clean
// core against the fixed ISS with SYSTEM opcodes blocked.
func deepConfig() cosim.Config {
	return cosim.Config{
		InstrLimit: 2, NumSymbolicRegs: 2, DUTCore: cosim.CorePipecore,
		ISS: iss.FixedConfig(), Pipe: pipecore.Config{}, Filter: cosim.BlockSystemInstructions,
	}
}

// huntCell is one Table II cell: a single injected fault at one limit.
type huntCell struct {
	core  cosim.CoreKind
	fault faults.Fault
	limit int
}

// huntCells are microrv32's E0–E9 at limit 1 and pipecore's E10–E14 at
// limit 2, the smallest limit at which each fault is visible.
func huntCells() []huntCell {
	var cs []huntCell
	for _, f := range faults.Base() {
		cs = append(cs, huntCell{cosim.CoreMicroRV32, f, 1})
	}
	for _, f := range faults.Pipeline() {
		cs = append(cs, huntCell{cosim.CorePipecore, f, 2})
	}
	return cs
}

// config mirrors harness.RunTable2's cell set-up: the fixed ISS, the fixed
// core plus this one fault, SYSTEM opcodes blocked.
func (c huntCell) config() cosim.Config {
	cfg := cosim.Config{ISS: iss.FixedConfig(), Filter: cosim.BlockSystemInstructions, InstrLimit: c.limit, DUTCore: c.core}
	if c.core == cosim.CorePipecore {
		cfg.Pipe = pipecore.Config{Faults: faults.Only(c.fault)}
	} else {
		mc := microrv32.FixedConfig()
		mc.Faults = faults.Only(c.fault)
		cfg.Core = mc
	}
	return cfg
}

func (c huntCell) String() string { return fmt.Sprintf("%s/%s@%d", c.core, c.fault, c.limit) }

// huntSeedPool holds the random-path seeds hunt-rand runs Table II at.
// Time-to-bug under random search has a heavy tail over seeds: one seed in
// sixteen took twice the median, and the pipecore cells took 4–826 paths.
// A run's median over arbitrary seeds therefore spread by up to 32%
// between runs. Every run covers the whole pool instead.
var huntSeedPool = []int64{1, 2, 3}

// huntSeed is the random-path seed of a run's index-th hunt pass: the
// benchmark's seed picks where in the pool the run starts, and the passes
// walk the pool from there.
func huntSeed(seed int64, index int) int64 {
	n := int64(len(huntSeedPool))
	return huntSeedPool[((seed-1+int64(index))%n+n)%n]
}

func exploreWith(run core.RunFunc, opts core.Options, workers int) *core.Report {
	if workers > 1 {
		return parexplore.Explore(run, opts, workers)
	}
	return core.NewExplorer(run).Explore(opts)
}

// explore runs one exploration of cfg and charges it the process CPU since
// cpu0, which the caller takes with opStart before any set-up of its own
// (such as opening a store).
func explore(cpu0 time.Duration, label string, cfg cosim.Config, opts core.Options, workers int) op {
	rep := exploreWith(cosim.RunFunc(cfg), opts, workers)
	cpu := processCPU() - cpu0
	return op{label: label, cfg: cfg, out: outcomeOf(cfg, rep), cpu: cpu, rss: peakRSSMB()}
}

// probeSetup builds an exploration as explore does and stops it where its
// first path would begin, returning the process CPU time spent by then.
// The co-simulation itself is built inside the path, so the probe needs no
// configuration.
func probeSetup(opts core.Options, workers int) (time.Duration, error) {
	var once sync.Once
	var cpu time.Duration
	exploreWith(func(*core.Engine) error {
		once.Do(func() { cpu = processCPU() })
		return core.ErrStopExploration
	}, opts, workers)
	if cpu == 0 {
		return 0, errors.New("no path started")
	}
	return cpu, nil
}

func probeSequential(b *bench, index int) (time.Duration, error) {
	return probeSetup(core.Options{GenerateTests: true}, 1)
}

// timed wraps a pass body with its wall and process CPU time.
func timed(body func() ([]op, storeTimes, error)) (pass, error) {
	g0, cpu0 := readGoRuntime(), processCPU()
	t0 := time.Now()
	ops, st, err := body()
	wall := time.Since(t0)
	return pass{ops: ops, wall: wall, cpu: processCPU() - cpu0, store: st, gorun: readGoRuntime().sub(g0)}, err
}

func exhaustReference(b *bench) ([]op, []error) {
	r := harness.LongRun(harness.LongRunOptions{Common: harness.Common{Workers: 1}})
	ref := op{label: "harness.LongRun", cfg: exhaustConfig(), out: outcomeOf(exhaustConfig(), r.Report)}
	b.Ref = []outcome{ref.out}
	return []op{ref}, []error{exhaustGate(b, 0, 0, ref)}
}

func exhaustPass(b *bench, index int, rec *obs.Recorder) (pass, error) {
	return timed(func() ([]op, storeTimes, error) {
		o := explore(opStart(), "exhaust-l1", exhaustConfig(), core.Options{GenerateTests: true, Obs: rec}, 1)
		return []op{o}, storeTimes{}, nil
	})
}

func exhaustGate(b *bench, index, i int, o op) error {
	s := o.out.Stats
	if !o.out.Exhausted || s.Paths != exhaustPaths || s.Completed != exhaustCompleted || len(o.out.Findings) != exhaustFindings {
		return fmt.Errorf("exhausted=%v paths=%d completed=%d findings=%d, want true/%d/%d/%d",
			o.out.Exhausted, s.Paths, s.Completed, len(o.out.Findings), exhaustPaths, exhaustCompleted, exhaustFindings)
	}
	return sameOutcome(b.Ref[i], o.out, true)
}

func deepReference(b *bench) ([]op, []error) {
	r := harness.LongRun(harness.LongRunOptions{
		Common:     harness.Common{Workers: 1, Core: cosim.CorePipecore, MaxPaths: deepPaths},
		InstrLimit: 2,
	})
	ref := op{label: "harness.LongRun", cfg: deepConfig(), out: outcomeOf(deepConfig(), r.Report)}
	b.Ref = []outcome{ref.out}
	return []op{ref}, []error{deepGate(b, 0, 0, ref)}
}

func deepPass(b *bench, index int, rec *obs.Recorder) (pass, error) {
	return timed(func() ([]op, storeTimes, error) {
		o := explore(opStart(), "deep-l2-pipe", deepConfig(), core.Options{GenerateTests: true, MaxPaths: deepPaths, Obs: rec}, 1)
		return []op{o}, storeTimes{}, nil
	})
}

func deepGate(b *bench, index, i int, o op) error {
	s := o.out.Stats
	if s.Paths != deepPaths || s.Completed != deepPaths || len(o.out.Findings) != 0 {
		return fmt.Errorf("paths=%d completed=%d findings=%d, want %d/%d/0",
			s.Paths, s.Completed, len(o.out.Findings), deepPaths, deepPaths)
	}
	return sameOutcome(b.Ref[i], o.out, true)
}

// huntReference runs Table II through harness.RunTable2 with the
// random-path searcher at pass 0's seed. It yields cells, not reports, so
// hunt-rand's witnesses are replayed from the timed passes.
func huntReference(b *bench) ([]op, []error) {
	base := harness.Table2Options{PerCellTime: huntCellBudget, Search: core.SearchRandom, Seed: huntSeed(b.Seed, 0)}
	rv := base
	rv.Faults, rv.Limits = faults.Base(), []int{1}
	pc := base
	pc.Faults, pc.Limits, pc.Core = faults.Pipeline(), []int{2}, cosim.CorePipecore
	b.RefCells = nil
	var errs []error
	for _, opt := range []harness.Table2Options{rv, pc} {
		res := harness.RunTable2(opt)
		for _, row := range res.Rows {
			c := row.Cells[opt.Limits[0]]
			b.RefCells = append(b.RefCells, c)
			var err error
			if !c.Found {
				err = fmt.Errorf("harness.RunTable2: %s at limit %d not found", row.Fault, opt.Limits[0])
			}
			errs = append(errs, err)
		}
	}
	return nil, errs
}

func huntPass(b *bench, index int, rec *obs.Recorder) (pass, error) {
	return timed(func() ([]op, storeTimes, error) {
		seed := huntSeed(b.Seed, index)
		var ops []op
		for _, c := range huntCells() {
			ops = append(ops, explore(opStart(), fmt.Sprintf("%s seed %d", c, seed), c.config(), core.Options{
				StopOnFirstFinding: true, MaxTime: huntCellBudget,
				Search: core.SearchRandom, Seed: seed, Obs: rec,
			}, 1))
		}
		return ops, storeTimes{}, nil
	})
}

// huntGate requires the cell's fault found. Pass 0 must also reproduce
// harness.RunTable2's cells, which ran at the same searcher seed.
func huntGate(b *bench, index, i int, o op) error {
	s := o.out.Stats
	if len(o.out.Findings) == 0 {
		return fmt.Errorf("fault not found (paths=%d)", s.Paths)
	}
	if index != 0 {
		return nil
	}
	c := b.RefCells[i]
	if !c.Found || c.Instr != s.Instructions || c.Partial != s.Partial || c.Paths != s.Completed {
		return fmt.Errorf("differs from harness.RunTable2: found=%v instr=%d partial=%d paths=%d vs instr=%d partial=%d paths=%d",
			c.Found, c.Instr, c.Partial, c.Paths, s.Instructions, s.Partial, s.Completed)
	}
	return nil
}

// prewarmStore fills a template store from the first prewarmPaths paths of
// the exhaust-l1 tree. Each store-w2 pass starts from a copy of it, so the
// pass reads store hits for that prefix and persists the rest.
func prewarmStore(b *bench) error {
	b.StoreTpl = filepath.Join(b.Dir, "store-template")
	sess, err := qstore.OpenSession(b.StoreTpl, storeKey)
	if err != nil {
		return err
	}
	harness.LongRun(harness.LongRunOptions{Common: harness.Common{Workers: 1, MaxPaths: prewarmPaths, Store: sess}})
	if err := sess.Close(); err != nil {
		return fmt.Errorf("prewarm store: %w", err)
	}
	if sess.Stats().Persisted == 0 {
		return errors.New("prewarm store: nothing persisted")
	}
	return nil
}

func storePass(b *bench, index int, rec *obs.Recorder) (pass, error) {
	// Each pass starts from its own copy of the pre-warmed store; copying
	// is preparation, outside the timing.
	dir := filepath.Join(b.Dir, fmt.Sprintf("store-pass-%d", index))
	defer os.RemoveAll(dir)
	if err := copyDir(b.StoreTpl, dir); err != nil {
		return pass{}, err
	}
	return timed(func() ([]op, storeTimes, error) {
		var st storeTimes
		cpu0 := opStart()
		t0 := time.Now()
		sess, err := qstore.OpenSession(dir, storeKey)
		if err != nil {
			return nil, st, err
		}
		st.open = time.Since(t0)
		o := explore(cpu0, "store-w2", exhaustConfig(), core.Options{
			GenerateTests: true, SharedCache: sess.Shared(), Obs: rec,
		}, storeWorkers)
		t1 := time.Now()
		sess.Checkpoint()
		err = sess.Close()
		st.checkpoint = time.Since(t1)
		o.cpu, o.rss = processCPU()-cpu0, peakRSSMB()
		st.stats = sess.Stats()
		if err != nil {
			return nil, st, fmt.Errorf("store checkpoint: %w", err)
		}
		st.bytes, err = dirSize(dir)
		return []op{o}, st, err
	})
}

// probeStore opens the probe's copy of the pre-warmed store, which the
// caller made, and sets the parallel exploration up on it, as storePass
// does.
func probeStore(b *bench, index int) (time.Duration, error) {
	dir := probeStoreDir(b, index)
	defer os.RemoveAll(dir)
	sess, err := qstore.OpenSession(dir, storeKey)
	if err != nil {
		return 0, err
	}
	d, err := probeSetup(core.Options{GenerateTests: true, SharedCache: sess.Shared()}, storeWorkers)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func probeStoreDir(b *bench, index int) string {
	return filepath.Join(b.Dir, fmt.Sprintf("store-probe-%d", index))
}

// copyProbeStore copies the pre-warmed store for one probe. Copying is
// preparation, outside the probe's timing.
func copyProbeStore(b *bench, index int) error {
	return copyDir(b.StoreTpl, probeStoreDir(b, index))
}

// storeGate holds store-w2 to exhaust-l1's outcome, path for path, and
// requires the pre-warmed entries to have answered queries.
func storeGate(b *bench, index, i int, o op) error {
	if !o.out.Exhausted {
		return errors.New("tree not exhausted")
	}
	if o.out.Stats.Cache.StoreHits == 0 {
		return errors.New("no store hits from the pre-warmed store")
	}
	return sameOutcome(b.Ref[i], o.out, false)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
