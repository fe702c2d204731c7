// Command symv drives the symbolic RISC-V processor verification flow: it
// regenerates the paper's experiments (Table I, Table II, the exemplary long
// run, and the ablations) and runs individual bug hunts.
//
// Usage:
//
//	symv table1  [-probe-time 60s] [-max-paths 5000] [shared flags]
//	symv table2  [-cell-time 60s] [-limits 1,2] [-faults E0,E3] [shared flags]
//	symv hunt    [-fault E6] [-limit 1] [-shipped] [-regs 2] [-time 60s] [shared flags]
//	symv longrun [-budget 30s] [-limit 1] [-regs 2] [-coverage] [shared flags]
//	symv ablation [-kind regs|limit] [-budget 30s] [shared flags]
//	symv baseline [-cell-time 20s] [-trials 200000] [shared flags]
//	symv replay  [-fault E6] [-cycle-trace] [shared flags] name=hexvalue ...
//	symv trace   [-top 8] TRACE.jsonl
//	symv lint-table [-core both] [-json] [-v]
//	symv lint-dut  [-allowlist LINTDUT.allow] [-sat-probe] [-regs 2] [-v]
//	               [shared flags except -workers and -store]
//
// Every exploration subcommand accepts the shared flag group; lint-dut,
// which explores sequentially and keeps no witness store, takes it without
// -workers and -store:
//
//	-core NAME     device under test: microrv32 (default) | pipecore; the
//	               lint commands also accept both (their default)
//	-workers N     shard each exploration's path tree across N solver
//	               contexts (default 1); paths, counts, path indices and
//	               finding classes match -workers 1, witness values do not
//	               (see internal/parexplore)
//	-cache on|off  query-elimination layer (stack models, independence
//	               slicing, feasibility caching)
//	-store DIR     persistent witness store (inspect with symv cache)
//	-json          emit machine-readable JSON instead of the table
//	-trace FILE    write a JSONL span/counter trace (inspect with symv trace)
//	-metrics       print the aggregated per-phase table to stderr afterwards
//
// Every path replays its decision prefix from the start (replay-based
// forking, see internal/core). -cache=off is an ablation switch: paths,
// counts, path indices and finding classes are identical on and off by
// construction, only the solver work changes (see internal/querycache).
// -store is a side channel in the same sense, and -trace and -metrics never
// change a report at all (see internal/qstore, internal/obs). Witness values
// are whatever model answered, so they can differ with -workers, -cache and
// -store state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"symriscv/internal/smt"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/decodecheck"
	"symriscv/internal/dutlint"
	"symriscv/internal/faults"
	"symriscv/internal/harness"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/obs"
	"symriscv/internal/qstore"
	"symriscv/internal/rvfi"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// usageError marks an error caused by bad command-line input (unknown flag,
// malformed flag value, missing operand). The flag package has already
// printed the message and the flag-set usage when parsing failed; run maps
// every usageError to exit code 2, runtime failures to exit code 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

// badUsage wraps a hand-raised usage error, printing it the same way the
// flag package reports a bad flag (message to stderr, then exit 2 via run).
func badUsage(stderr io.Writer, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	fmt.Fprintln(stderr, "symv:", err)
	return usageError{err}
}

// parseFlags runs one subcommand's flag parsing under the unified error
// contract: parse failures (which the flag set has already reported to
// stderr together with its usage text) come back as usageError.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// run dispatches one symv invocation and returns its exit code: 0 on
// success, 2 for command-line usage errors (unknown command or flag, bad
// flag value — always accompanied by usage text on stderr), 1 for runtime
// failures.
func run(args []string, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "table1":
		err = cmdTable1(args[1:], stderr)
	case "table2":
		err = cmdTable2(args[1:], stderr)
	case "hunt":
		err = cmdHunt(args[1:], stderr)
	case "longrun":
		err = cmdLongRun(args[1:], stderr)
	case "ablation":
		err = cmdAblation(args[1:], stderr)
	case "baseline":
		err = cmdBaseline(args[1:], stderr)
	case "replay":
		err = cmdReplay(args[1:], stderr)
	case "trace":
		err = cmdTrace(args[1:], stderr)
	case "cache":
		err = cmdCache(args[1:], stderr)
	case "lint-table":
		err = cmdLintTable(args[1:], stderr)
	case "lint-dut":
		err = cmdLintDUT(args[1:], stderr)
	case "-h", "--help", "help":
		usage(stderr)
	default:
		fmt.Fprintf(stderr, "symv: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	switch err := err.(type) {
	case nil:
		return 0
	case usageError:
		return 2
	default:
		fmt.Fprintln(stderr, "symv:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `symv — symbolic co-simulation verification of a RISC-V RTL core

commands:
  table1    regenerate the Table I error/mismatch catalogue
  table2    regenerate the Table II error-injection study
  hunt      hunt one injected fault (or the shipped bugs)
  longrun   budgeted comprehensive exploration statistics
  ablation  sliced-register or instruction-limit ablation
  baseline  compare symbolic execution against fuzzing baselines
  replay    re-execute a test vector (name=hexvalue pairs) against a fault
  trace     digest a JSONL observability trace (from -trace FILE)
  cache     inspect or maintain a persistent witness store (-store DIR):
            stats | verify | gc | distill
  lint-table  statically verify the decode table (clean + all fault configs)
  lint-dut    static semantic lint of a core's symbolic transition relation

shared flags (every exploration command; lint-dut takes all but -workers
and -store, lint-table only -core and -json):
  -core microrv32|pipecore  -workers N  -cache on|off
  -store DIR  -json  -trace FILE  -metrics`)
}

// sharedFlags is the flag group every exploration subcommand registers: the
// worker count, the cache ablation toggle, the witness store,
// machine-readable output, and the observability sinks. It maps one-to-one
// onto harness.Common.
type sharedFlags struct {
	workers *int // nil without -workers (lint-dut)
	core    *string
	cache   *string
	store   *string // nil without -store (lint-dut)
	jsonOut *bool
	trace   *string
	metrics *bool

	// lint marks lint-dut's group: it fans out over the cores itself
	// (lintCores), so build leaves -core to it.
	lint bool
}

// sharedGroup registers the shared flag group on a campaign's flag set.
func sharedGroup(fs *flag.FlagSet) *sharedFlags {
	g := &sharedFlags{
		workers: fs.Int("workers", 1,
			"parallel exploration workers per exploration (1 = sequential; paths, counts and finding classes are worker-count independent, witness values are not)"),
		store: fs.String("store", "",
			"persistent witness store directory: load compatible cache entries at startup, persist new ones at exploration boundaries (inspect with symv cache)"),
	}
	g.register(fs)
	return g
}

// lintGroup registers lint-dut's share of the group: everything but
// -workers and -store, because the lint explores sequentially and keeps no
// witness store.
func lintGroup(fs *flag.FlagSet) *sharedFlags {
	g := &sharedFlags{lint: true}
	g.register(fs)
	return g
}

// register adds the flags both groups take.
func (g *sharedFlags) register(fs *flag.FlagSet) {
	g.core = fs.String("core", "",
		"device under test: microrv32 | pipecore (campaigns default to microrv32; lint-dut also accepts both, its default)")
	g.cache = fs.String("cache", "on", "query-elimination layer (stack models, slicing, feasibility cache): on | off")
	g.jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of the table")
	g.trace = fs.String("trace", "", "write a JSONL span/counter trace to this file (inspect with symv trace)")
	g.metrics = fs.Bool("metrics", false, "print the aggregated counter/phase table to stderr after the run")
}

// build validates the group, opens the observability sinks and (with -store)
// the persistent witness store session. keyParts are the subcommand's
// compatibility descriptors (DUT configuration, fault set, workload shape);
// together with the cache schema version they form the store's version key,
// so entries never leak between incompatible runs. A store directory that
// cannot be opened degrades to a cold cache with a stderr warning — it never
// fails the campaign. The returned finish func closes the store session and
// the recorder (flushing the trace file) and prints the -metrics table; call
// it after the campaign, before emitting results is fine too since all these
// sinks bypass stdout.
func (g *sharedFlags) build(cmd string, stderr io.Writer, keyParts ...string) (harness.Common, func() error, error) {
	var c harness.Common
	if g.workers != nil {
		c.Workers = *g.workers
	}
	switch strings.ToLower(*g.cache) {
	case "", "on":
	case "off":
		c.NoCache = true
	default:
		return c, nil, badUsage(stderr, "bad -cache=%q (want on or off)", *g.cache)
	}
	if !g.lint {
		kind, ok := cosim.ParseCoreKind(*g.core)
		if !ok {
			return c, nil, badUsage(stderr, "bad -core=%q (want microrv32 or pipecore)", *g.core)
		}
		c.Core = kind
	}
	var traceFile *os.File
	if *g.trace != "" || *g.metrics {
		var w io.Writer
		if *g.trace != "" {
			f, err := os.Create(*g.trace)
			if err != nil {
				return c, nil, err
			}
			traceFile = f
			w = f
		}
		c.Obs = obs.New(obs.Options{Trace: w, Label: "symv " + cmd})
	}
	if g.store != nil && *g.store != "" {
		key := qstore.VersionKey(append([]string{"cmd=" + cmd}, keyParts...)...)
		sess, err := qstore.OpenSession(*g.store, key)
		if err != nil {
			fmt.Fprintf(stderr, "symv: warning: store %s unavailable (%v); running with a cold cache\n", *g.store, err)
		} else {
			c.Store = sess
		}
	}
	finish := func() error {
		if c.Store != nil {
			if err := c.Store.Close(); err != nil {
				fmt.Fprintf(stderr, "symv: warning: store persist failed (%v); entries from this run may be lost\n", err)
			}
			c.Store.PublishObs(c.Obs)
			fmt.Fprintln(stderr, c.Store.Stats().Summary())
		}
		if c.Obs == nil {
			return nil
		}
		closeErr := c.Obs.Close()
		if *g.metrics {
			fmt.Fprint(stderr, c.Obs.FormatSnapshot())
		}
		if closeErr != nil {
			return closeErr
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "trace written to %s (inspect with: symv trace %s)\n", *g.trace, *g.trace)
		}
		return nil
	}
	return c, finish, nil
}

// lintCores resolves -core for the lint commands: the empty value, "both"
// and "all" fan out over every core, and a single core's aliases resolve to
// its canonical name.
func lintCores(v string, stderr io.Writer) ([]string, error) {
	switch strings.ToLower(v) {
	case "", "both", "all":
		return []string{cosim.CoreMicroRV32.String(), cosim.CorePipecore.String()}, nil
	}
	if k, ok := cosim.ParseCoreKind(v); ok {
		return []string{k.String()}, nil
	}
	return nil, badUsage(stderr, "bad -core=%q (want microrv32, pipecore or both)", v)
}

// coreName returns the canonical name of the selected core for store version
// keys, so aliases ("", "pipeline") key identically to their canonical
// spelling. Unparseable values pass through lowercased; build rejects them
// before any store is opened.
func (g *sharedFlags) coreName() string {
	if k, ok := cosim.ParseCoreKind(*g.core); ok {
		return k.String()
	}
	return strings.ToLower(*g.core)
}

// requireMicroRV32 rejects -core selections other than microrv32 for commands
// whose campaign is defined on the FSM core only.
func (g *sharedFlags) requireMicroRV32(cmd string, stderr io.Writer) error {
	if k, ok := cosim.ParseCoreKind(*g.core); ok && k == cosim.CorePipecore {
		return badUsage(stderr, "%s supports only -core microrv32", cmd)
	}
	return nil
}

func cmdTable1(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	probeTime := fs.Duration("probe-time", 60*time.Second, "exploration budget per probe scenario")
	maxPaths := fs.Int("max-paths", 5000, "path budget per probe scenario")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	common, finish, err := shared.build("table1", stderr, "core="+shared.coreName())
	if err != nil {
		return err
	}
	common.Budget = *probeTime
	common.MaxPaths = *maxPaths
	res := harness.RunTable1(harness.Table1Options{Common: common})
	if *shared.jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
		return finish()
	}
	fmt.Print(res.Format())
	fmt.Printf("campaign wall time: %s\n", res.Elapsed.Round(time.Millisecond))
	return finish()
}

func cmdTable2(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cellTime := fs.Duration("cell-time", 60*time.Second, "budget per (fault, limit) cell")
	limitsArg := fs.String("limits", "1,2", "comma-separated instruction limits")
	faultsArg := fs.String("faults", "", "comma-separated fault subset (default all)")
	parallel := fs.Int("parallel", 1, "concurrent cells (each with its own solver)")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	limits, err := parseInts(*limitsArg)
	if err != nil {
		return badUsage(stderr, "bad -limits: %v", err)
	}
	var fset []faults.Fault
	if *faultsArg != "" {
		fset, err = parseFaults(*faultsArg)
		if err != nil {
			return badUsage(stderr, "%v", err)
		}
	}
	common, finish, err := shared.build("table2", stderr,
		"core="+shared.coreName(), "limits="+*limitsArg, "faults="+*faultsArg)
	if err != nil {
		return err
	}
	res := harness.RunTable2(harness.Table2Options{
		PerCellTime: *cellTime,
		Limits:      limits,
		Faults:      fset,
		Parallel:    *parallel,
		Common:      common,
	})
	if *shared.jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
		return finish()
	}
	fmt.Print(res.Format())
	fmt.Printf("campaign wall time: %s\n", res.Elapsed.Round(time.Millisecond))
	return finish()
}

// findingJSON is the marshal-friendly view of a core.Finding: the error is
// rendered to a string (error values don't marshal usefully).
type findingJSON struct {
	Path   int
	Err    string
	Inputs smt.MapEnv `json:",omitempty"`
}

// reportJSON is the marshal-friendly view of a core.Report.
type reportJSON struct {
	Stats       core.Stats
	Exhausted   bool
	Findings    []findingJSON `json:",omitempty"`
	TestVectors int           `json:",omitempty"` // count; vectors are bulky
}

func toReportJSON(r *core.Report) reportJSON {
	out := reportJSON{
		Stats:       r.Stats,
		Exhausted:   r.Exhausted,
		TestVectors: len(r.TestVectors),
	}
	for _, f := range r.Findings {
		out.Findings = append(out.Findings, findingJSON{Path: f.Path, Err: f.Err.Error(), Inputs: f.Inputs})
	}
	return out
}

func cmdHunt(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("hunt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	faultArg := fs.String("fault", "", "fault to inject (E0..E14); empty = none")
	limit := fs.Int("limit", 1, "instruction limit")
	shipped := fs.Bool("shipped", false, "use the as-shipped (buggy) core and VP instead of the fixed baseline (microrv32 only)")
	regs := fs.Int("regs", 2, "symbolic register slice size")
	budget := fs.Duration("time", 60*time.Second, "exploration budget")
	all := fs.Bool("all", false, "collect all findings instead of stopping at the first")
	search := fs.String("search", "dfs", "search strategy: dfs | bfs | random")
	seed := fs.Int64("seed", 0, "seed for the random-path strategy")
	progress := fs.Bool("progress", false, "print live exploration statistics")
	irq := fs.Bool("interrupts", false, "drive a symbolic external-interrupt line")
	irqBug := fs.Bool("mie-bug", false, "inject the missing-MIE-gate interrupt fault")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	strategy, err := parseSearch(*search)
	if err != nil {
		return badUsage(stderr, "%v", err)
	}
	var fv []faults.Fault
	if *faultArg != "" {
		if fv, err = parseFaults(*faultArg); err != nil {
			return badUsage(stderr, "%v", err)
		}
	}
	if k, ok := cosim.ParseCoreKind(*shared.core); ok && k == cosim.CorePipecore {
		if *shipped {
			return badUsage(stderr, "-shipped is microrv32-only (pipecore has no as-shipped variant)")
		}
		if *irqBug {
			return badUsage(stderr, "-mie-bug is microrv32-only")
		}
	}
	common, finish, err := shared.build("hunt", stderr,
		"core="+shared.coreName(),
		fmt.Sprintf("shipped=%v", *shipped), "fault="+*faultArg,
		fmt.Sprintf("limit=%d", *limit), fmt.Sprintf("regs=%d", *regs),
		fmt.Sprintf("irq=%v", *irq || *irqBug), fmt.Sprintf("miebug=%v", *irqBug))
	if err != nil {
		return err
	}

	cfg := cosim.Config{
		ISS:                iss.FixedConfig(),
		Core:               microrv32.FixedConfig(),
		Filter:             cosim.BlockSystemInstructions,
		InstrLimit:         *limit,
		NumSymbolicRegs:    *regs,
		SymbolicInterrupts: *irq || *irqBug,
		DUTCore:            common.Core,
	}
	if *shipped { // microrv32 only, checked above
		cfg.Core = microrv32.ShippedConfig()
		cfg.ISS = iss.VPConfig()
		cfg.Filter = nil
	}
	if *irqBug {
		cfg.Core.IgnoreMIEBug = true
	}
	cfg = cfg.WithFaults(faults.Of(fv...))
	if cfg.SymbolicInterrupts {
		cfg.StartPC = 0x100
	}
	opts := core.Options{
		StopOnFirstFinding: !*all,
		MaxTime:            *budget,
		Search:             strategy,
		Seed:               *seed,
	}
	if *progress {
		opts.Progress = func(s core.Stats) { fmt.Fprintf(stderr, "  ... %v\n", s) }
	}
	rep := common.Explore(cosim.RunFunc(cfg), opts)

	if *shared.jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(toReportJSON(rep)); err != nil {
			return err
		}
		return finish()
	}
	fmt.Printf("exploration: %v (exhausted=%v)\n", rep.Stats, rep.Exhausted)
	if len(rep.Findings) == 0 {
		fmt.Println("no mismatch found")
		return finish()
	}
	for i, f := range rep.Findings {
		fmt.Printf("finding %d: %v\n", i+1, f.Err)
		if len(f.Inputs) > 0 {
			fmt.Printf("  witness inputs:\n")
			for _, k := range sortedKeys(f.Inputs) {
				fmt.Printf("    %-14s = %#010x\n", k, f.Inputs[k])
			}
		}
	}
	return finish()
}

func cmdLongRun(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("longrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	budget := fs.Duration("budget", 30*time.Second, "exploration budget (0 = unbounded: run until the path tree is exhausted)")
	limit := fs.Int("limit", 1, "instruction limit")
	regs := fs.Int("regs", 2, "symbolic register slice size")
	maxPaths := fs.Int("max-paths", 0, "path budget (0 = unbounded)")
	coverage := fs.Bool("coverage", false, "print test-set instruction coverage")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	common, finish, err := shared.build("longrun", stderr, "core="+shared.coreName(),
		fmt.Sprintf("limit=%d", *limit), fmt.Sprintf("regs=%d", *regs))
	if err != nil {
		return err
	}
	common.Budget = *budget
	common.MaxPaths = *maxPaths
	res := harness.LongRun(harness.LongRunOptions{Common: common, InstrLimit: *limit, NumRegs: *regs})
	if *shared.jsonOut {
		doc := struct {
			BudgetSecs float64
			Limit      int
			NumRegs    int
			Workers    int
			Report     reportJSON
		}{res.Budget.Seconds(), res.Limit, res.NumRegs, res.Workers, toReportJSON(res.Report)}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			return err
		}
		return finish()
	}
	fmt.Print(res.Format())
	if *coverage {
		cov := harness.Coverage(harness.TestSetInputs(res.Report))
		fmt.Print(cov.Format())
	}
	return finish()
}

func cmdAblation(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("ablation", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "regs", "ablation kind: regs | limit")
	budget := fs.Duration("budget", 15*time.Second, "budget per configuration point")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if err := shared.requireMicroRV32("ablation", stderr); err != nil {
		return err
	}
	common, finish, err := shared.build("ablation", stderr, "kind="+*kind)
	if err != nil {
		return err
	}
	common.Budget = *budget
	switch *kind {
	case "regs":
		res := harness.RegAblation(harness.RegAblationOptions{Common: common})
		if *shared.jsonOut {
			if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
				return err
			}
			return finish()
		}
		fmt.Print(res.Format())
	case "limit":
		pts := harness.LimitAblation(harness.LimitAblationOptions{Common: common, Limits: []int{1, 2}})
		if *shared.jsonOut {
			if err := json.NewEncoder(os.Stdout).Encode(pts); err != nil {
				return err
			}
			return finish()
		}
		fmt.Print(harness.FormatLimitAblation(pts))
	default:
		return badUsage(stderr, "unknown ablation kind %q", *kind)
	}
	return finish()
}

func cmdBaseline(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("baseline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cellTime := fs.Duration("cell-time", 20*time.Second, "budget per cell")
	trials := fs.Int("trials", 200000, "fuzzing trial budget per cell")
	faultsArg := fs.String("faults", "", "comma-separated fault subset (default all)")
	seed := fs.Int64("seed", 1, "fuzzing seed")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var fset []faults.Fault
	if *faultsArg != "" {
		var err error
		fset, err = parseFaults(*faultsArg)
		if err != nil {
			return badUsage(stderr, "%v", err)
		}
	}
	if err := shared.requireMicroRV32("baseline", stderr); err != nil {
		return err
	}
	common, finish, err := shared.build("baseline", stderr, "faults="+*faultsArg)
	if err != nil {
		return err
	}
	common.Budget = *cellTime
	res := harness.RunBaseline(harness.BaselineOptions{
		MaxTrials: *trials,
		Faults:    fset,
		Seed:      *seed,
		Common:    common,
	})
	if *shared.jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
		return finish()
	}
	fmt.Print(res.Format())
	fmt.Printf("campaign wall time: %s\n", res.Elapsed.Round(time.Millisecond))
	return finish()
}

func cmdReplay(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	faultArg := fs.String("fault", "", "fault to inject (E0..E14); empty = none")
	limit := fs.Int("limit", 1, "instruction limit")
	shipped := fs.Bool("shipped", false, "use the as-shipped core and VP (microrv32 only)")
	cycleTrace := fs.Bool("cycle-trace", false, "print a per-cycle execution trace")
	shared := sharedGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	vector := make(smt.MapEnv)
	for _, kv := range fs.Args() {
		name, valStr, ok := strings.Cut(kv, "=")
		if !ok {
			return badUsage(stderr, "replay: want name=hexvalue, got %q", kv)
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(valStr, "0x"), 16, 64)
		if err != nil {
			return badUsage(stderr, "replay: bad value in %q: %v", kv, err)
		}
		vector[name] = v
	}
	if len(vector) == 0 {
		return badUsage(stderr, "replay: no test-vector assignments given")
	}

	var fv []faults.Fault
	if *faultArg != "" {
		var err error
		if fv, err = parseFaults(*faultArg); err != nil {
			return badUsage(stderr, "%v", err)
		}
	}
	if k, ok := cosim.ParseCoreKind(*shared.core); ok && k == cosim.CorePipecore && *shipped {
		return badUsage(stderr, "-shipped is microrv32-only (pipecore has no as-shipped variant)")
	}
	common, finish, err := shared.build("replay", stderr, "core="+shared.coreName(),
		fmt.Sprintf("shipped=%v", *shipped), "fault="+*faultArg, fmt.Sprintf("limit=%d", *limit))
	if err != nil {
		return err
	}
	cfg := cosim.Config{ISS: iss.FixedConfig(), Core: microrv32.FixedConfig(), InstrLimit: *limit, Pin: vector, DUTCore: common.Core}
	if *shipped { // microrv32 only, checked above
		cfg.Core = microrv32.ShippedConfig()
		cfg.ISS = iss.VPConfig()
	}
	cfg = cfg.WithFaults(faults.Of(fv...))
	if err := cosim.CheckVector(cfg, vector); err != nil {
		_ = finish() // the bad vector is the error to report
		return badUsage(stderr, "replay: %v", err)
	}
	if *cycleTrace {
		cfg.Trace = os.Stdout
	}
	rep := common.Explore(cosim.RunFunc(cfg), cosim.ReplayOptions)
	var m *rvfi.Mismatch
	if len(rep.Findings) > 0 {
		var ok bool
		if m, ok = rep.Findings[0].Err.(*rvfi.Mismatch); !ok {
			return rep.Findings[0].Err
		}
	}
	if *shared.jsonOut {
		doc := struct {
			Reproduced bool
			Mismatch   string `json:",omitempty"`
		}{}
		if m != nil {
			doc.Reproduced = true
			doc.Mismatch = m.Error()
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			return err
		}
		return finish()
	}
	if m == nil {
		fmt.Println("vector reproduces no mismatch")
		return finish()
	}
	fmt.Printf("reproduced: %v\n", m)
	return finish()
}

// cmdTrace digests a JSONL observability trace written by -trace FILE: the
// top phases by cumulative time, the duration histogram per phase, and the
// counter/gauge totals.
func cmdTrace(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 8, "show the top N phases by cumulative time (0 = all)")
	jsonOut := fs.Bool("json", false, "emit the digest as JSON instead of the tables")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return badUsage(stderr, "usage: symv trace [-top N] TRACE.jsonl")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := obs.ReadSummary(f)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(sum)
	}
	fmt.Print(sum.Format(*top))
	return nil
}

// cmdCache is the offline maintenance interface of the persistent witness
// store (the -store DIR every exploration subcommand accepts):
//
//	symv cache stats   -store DIR [-json]   inventory per version key
//	symv cache verify  -store DIR [-json]   decode everything, exit 1 on damage
//	symv cache gc      -store DIR [-json]   compact: dedup entries, drop damage
//	symv cache distill -store DIR [-key K] [-json]
//	                                        reduce sat witnesses to a minimal
//	                                        regression corpus (greedy set
//	                                        cover), replayable via symv replay
func cmdCache(args []string, stderr io.Writer) error {
	if len(args) < 1 {
		return badUsage(stderr, "usage: symv cache <stats|verify|gc|distill> -store DIR")
	}
	op := args[0]
	fs := flag.NewFlagSet("cache "+op, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("store", "", "witness store directory (required)")
	keyArg := fs.String("key", "", "restrict distill to one version key (default all keys)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the report")
	switch op {
	case "stats", "verify", "gc", "distill":
	default:
		return badUsage(stderr, "cache: unknown operation %q (want stats, verify, gc or distill)", op)
	}
	if err := parseFlags(fs, args[1:]); err != nil {
		return err
	}
	if *dir == "" {
		return badUsage(stderr, "cache %s: -store DIR is required", op)
	}
	store, err := qstore.Open(*dir)
	if err != nil {
		return err
	}
	emit := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	switch op {
	case "stats":
		st, err := store.Stats()
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(st)
		}
		fmt.Print(formatStoreStats(st))
	case "verify":
		st, issues, err := store.Verify()
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := emit(struct {
				Stats  qstore.StoreStats
				Issues []qstore.Issue
			}{st, issues}); err != nil {
				return err
			}
		} else {
			fmt.Print(formatStoreStats(st))
			for _, is := range issues {
				fmt.Printf("issue: %s: %s: %s\n", is.Segment, is.Kind, is.Detail)
			}
		}
		if len(issues) > 0 {
			return fmt.Errorf("cache verify: %d issue(s) found", len(issues))
		}
		if !*jsonOut {
			fmt.Println("store verifies clean")
		}
	case "gc":
		res, err := store.GC()
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(res)
		}
		fmt.Printf("gc: %d segment(s) -> %d, %d record(s) -> %d entries (%d duplicate(s), %d corrupt dropped), %d bytes -> %d\n",
			res.SegmentsBefore, res.SegmentsAfter, res.EntriesBefore, res.EntriesAfter,
			res.DroppedDuplicates, res.DroppedCorrupt, res.BytesBefore, res.BytesAfter)
	case "distill":
		rs, err := store.Distill(*keyArg)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(rs)
		}
		if len(rs) == 0 {
			fmt.Println("no satisfiable witnesses to distill")
			return nil
		}
		for _, r := range rs {
			fmt.Printf("key %s: %d witness(es), %d constraint set(s), corpus of %d vector(s)\n",
				r.Key, r.Witnesses, r.Universe, len(r.Vectors))
			for i, v := range r.Vectors {
				fmt.Printf("  vector %d (covers %d): %s\n", i+1, v.Covers, v.ReplayArgs())
			}
		}
	}
	return nil
}

// formatStoreStats renders the offline inventory table.
func formatStoreStats(st qstore.StoreStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "store %s: %d segment(s), %d bytes", st.Dir, st.Segments, st.Bytes)
	if st.CorruptSegments > 0 {
		fmt.Fprintf(&b, ", %d corrupt segment(s)", st.CorruptSegments)
	}
	b.WriteString("\n")
	for _, k := range st.Keys {
		fmt.Fprintf(&b, "  key %s: %d segment(s), %d entr(ies) (%d distinct; %d sat, %d unsat)",
			k.Key, k.Segments, k.Entries, k.Distinct, k.Sat, k.Unsat)
		if k.CorruptRecords > 0 {
			fmt.Fprintf(&b, ", %d corrupt record(s) skipped", k.CorruptRecords)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func parseSearch(s string) (core.SearchStrategy, error) {
	switch strings.ToLower(s) {
	case "dfs", "":
		return core.SearchDFS, nil
	case "bfs":
		return core.SearchBFS, nil
	case "random", "random-path":
		return core.SearchRandom, nil
	}
	return 0, fmt.Errorf("unknown search strategy %q", s)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFaults(s string) ([]faults.Fault, error) {
	var out []faults.Fault
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToUpper(part))
		found := false
		for _, f := range faults.All() {
			if f.String() == part {
				out = append(out, f)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown fault %q (want E0..E14)", part)
		}
	}
	return out, nil
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// cmdLintTable statically verifies a core's decode table for the clean
// configuration and every single-fault configuration, both with and without
// the M extension. It exits non-zero on any overlap, gap, malformed row, or
// unexplained deviation; the E0–E2 mask widenings appear as intentional
// deviations in the output.
func cmdLintTable(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("lint-table", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print the full report for every configuration")
	coreArg := fs.String("core", "", "core whose decode table to check: microrv32 | pipecore | both (default both)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of the table")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cores, err := lintCores(*coreArg, stderr)
	if err != nil {
		return err
	}
	var reps []*decodecheck.Report
	for _, name := range cores {
		reps = append(reps, decodecheck.CheckAllFor(decodecheck.CoreKind(name))...)
	}
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(reps); err != nil {
			return err
		}
	}
	fail := 0
	for _, rep := range reps {
		if !*jsonOut {
			if *verbose || !rep.OK() || len(rep.Deviation) > 0 {
				fmt.Print(rep.Format())
			} else {
				fmt.Printf("decode-table check [%s]: OK (%d rows, %d words cross-checked)\n",
					rep.Config, rep.Rows, rep.Checked)
			}
		}
		if !rep.OK() {
			fail++
		}
	}
	if fail > 0 {
		return fmt.Errorf("lint-table: %d configuration(s) failed", fail)
	}
	return nil
}

// cmdLintDUT runs the static transition-relation analyzer (internal/dutlint)
// over each selected core's repaired configuration: one symbolic instruction
// slot with fully-free inputs, then a pure DAG analysis for dead logic,
// unconstrained inputs, constant candidates, width/strobe discipline and
// (with -sat-probe) decode-arm selectability. Exit status is non-zero when
// any finding is not covered by the allowlist.
func cmdLintDUT(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("lint-dut", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowPath := fs.String("allowlist", "LINTDUT.allow",
		"allowlist of intentional findings (\"\" lints with no allowlist; the default is optional, an explicit file must exist)")
	satProbe := fs.Bool("sat-probe", false, "SAT-probe decode-arm selectability (off by default)")
	numRegs := fs.Int("regs", 0, "symbolic initial registers x1..xN (0 = dutlint default)")
	maxPaths := fs.Int("max-paths", 0, "path bound (0 = exhaustive; truncation downgrades the coverage analyses)")
	maxTime := fs.Duration("time", 0, "exploration wall-clock bound (0 = unlimited)")
	verbose := fs.Bool("v", false, "print the per-observable cone-of-influence breakdown")
	shared := lintGroup(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cores, err := lintCores(*shared.core, stderr)
	if err != nil {
		return err
	}
	common, finish, err := shared.build("lint-dut", stderr)
	if err != nil {
		return err
	}

	var allow *dutlint.Allowlist
	if *allowPath != "" {
		allow, err = dutlint.LoadAllowlist(*allowPath)
		if err != nil {
			explicit := false
			fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "allowlist" })
			if !os.IsNotExist(err) || explicit {
				return err
			}
			allow = nil // default allowlist absent: lint without one
		}
	}

	fail := 0
	for _, name := range cores {
		rep := harness.LintDUT(name, harness.LintDUTOptions{
			MaxPaths: *maxPaths,
			MaxTime:  *maxTime,
			NoCache:  common.NoCache,
			Obs:      common.Obs,
			NumRegs:  *numRegs,
			SATProbe: *satProbe,
			Allow:    allow,
		})
		if rep == nil {
			return fmt.Errorf("lint-dut: unknown core %q (want microrv32, pipecore or both)", name)
		}
		if *shared.jsonOut {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else {
			fmt.Print(rep.Format(*verbose))
		}
		if !rep.Clean() {
			fail++
		}
	}
	if allow != nil && !*shared.jsonOut {
		for _, e := range allow.Stale() {
			fmt.Printf("note: allowlist line %d (%s %s %s) matched nothing in this run\n",
				e.Line, e.Class, e.Core, e.Name)
		}
	}
	if err := finish(); err != nil {
		return err
	}
	if fail > 0 {
		return fmt.Errorf("lint-dut: %d core(s) failed", fail)
	}
	return nil
}
