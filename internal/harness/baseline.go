package harness

import (
	"fmt"
	"strings"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/fuzz"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
)

// BaselineRow compares time-to-bug of the symbolic exploration against the
// two fuzzing strategies for one injected fault.
type BaselineRow struct {
	Fault faults.Fault

	SymTime  time.Duration
	SymFound bool

	ValidTrials int
	ValidTime   time.Duration
	ValidFound  bool

	UniformTrials int
	UniformTime   time.Duration
	UniformFound  bool

	MutTrials int
	MutTime   time.Duration
	MutFound  bool
}

// BaselineResult is the symbolic-vs-fuzzing comparison study — the paper's
// §I motivation ("fuzzing is susceptible to miss corner case bugs") made
// measurable on the same co-simulation substrate.
type BaselineResult struct {
	Rows    []BaselineRow
	Budget  time.Duration
	Trials  int
	Elapsed time.Duration
}

// BaselineOptions configure the comparison.
type BaselineOptions struct {
	// Common carries the shared options for the symbolic hunts (the fuzzing
	// campaigns are concrete and single-threaded by construction).
	// Common.Budget bounds each cell: the hunt and each fuzzing campaign
	// (default 20s).
	Common
	// MaxTrials bounds each fuzzing campaign (default 200000).
	MaxTrials int
	// Faults selects the injected errors (default all).
	Faults []faults.Fault
	// Seed seeds the fuzzing campaigns.
	Seed int64
}

// RunBaseline runs the comparison.
func RunBaseline(opt BaselineOptions) *BaselineResult {
	if opt.Budget == 0 {
		opt.Budget = 20 * time.Second
	}
	if opt.MaxTrials == 0 {
		opt.MaxTrials = 200000
	}
	if opt.Faults == nil {
		opt.Faults = faults.All()
	}
	start := time.Now()
	res := &BaselineResult{Budget: opt.Budget, Trials: opt.MaxTrials}

	for _, f := range opt.Faults {
		coreCfg := microrv32.FixedConfig()
		coreCfg.Faults = faults.Only(f)
		base := cosim.Config{
			ISS:        iss.FixedConfig(),
			Core:       coreCfg,
			InstrLimit: 1,
		}

		row := BaselineRow{Fault: f}

		symCfg := base
		symCfg.Filter = cosim.BlockSystemInstructions
		t0 := time.Now()
		rep := opt.Explore(cosim.RunFunc(symCfg), core.Options{StopOnFirstFinding: true})
		row.SymFound = len(rep.Findings) > 0
		row.SymTime = time.Since(t0)

		vc := fuzz.Campaign{Seed: opt.Seed + int64(f), Strategy: fuzz.StrategyValid, Base: base}
		vr := vc.Run(opt.MaxTrials, opt.Budget)
		row.ValidFound, row.ValidTrials, row.ValidTime = vr.Found, vr.Trials, vr.Elapsed

		uc := fuzz.Campaign{Seed: opt.Seed + 1000 + int64(f), Strategy: fuzz.StrategyUniform, Base: base}
		ur := uc.Run(opt.MaxTrials, opt.Budget)
		row.UniformFound, row.UniformTrials, row.UniformTime = ur.Found, ur.Trials, ur.Elapsed

		mc := fuzz.MutationCampaign{Seed: opt.Seed + 2000 + int64(f), Base: base}
		mr := mc.Run(opt.MaxTrials, opt.Budget)
		row.MutFound, row.MutTrials, row.MutTime = mr.Found, mr.Trials, mr.Elapsed

		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res
}

// Format renders the comparison table.
func (r *BaselineResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Symbolic execution vs fuzzing baselines (budget %s or %d trials per cell)\n",
		r.Budget, r.Trials)
	fmt.Fprintf(&b, "%-6s | %-14s | %-26s | %-26s | %-26s\n", "Error", "symbolic", "constrained-valid fuzzing", "uniform-random fuzzing", "coverage-guided mutation")
	fmt.Fprintf(&b, "%-6s | %-14s | %-26s | %-26s | %-26s\n", "", "time-to-bug", "trials / time", "trials / time", "trials / time")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 110))
	cell := func(found bool, trials int, d time.Duration) string {
		if !found {
			return fmt.Sprintf("NOT FOUND (%d trials)", trials)
		}
		return fmt.Sprintf("%d / %s", trials, fmtDur(d))
	}
	for _, row := range r.Rows {
		sym := "NOT FOUND"
		if row.SymFound {
			sym = fmtDur(row.SymTime)
		}
		fmt.Fprintf(&b, "%-6s | %-14s | %-26s | %-26s | %-26s\n",
			row.Fault, sym,
			cell(row.ValidFound, row.ValidTrials, row.ValidTime),
			cell(row.UniformFound, row.UniformTrials, row.UniformTime),
			cell(row.MutFound, row.MutTrials, row.MutTime))
	}
	return b.String()
}
