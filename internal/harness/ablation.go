package harness

import (
	"fmt"
	"strings"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/riscv"
)

// AblationPoint is one configuration of the register-slicing ablation: the
// paper notes the non-optimised (fully symbolic) register file pushes the
// exploration beyond 30 days, motivating the sliced design (§IV-C.3).
type AblationPoint struct {
	SymbolicRegs int
	Paths        int
	Instr        uint64
	Time         time.Duration
	Exhausted    bool
	FoundE6In    time.Duration // time-to-bug for an injected E6, same config
	FoundE6      bool
}

// AblationResult is the sliced-register ablation study.
type AblationResult struct {
	Points []AblationPoint
	Budget time.Duration
}

// RegAblationOptions configure the sliced-register ablation study.
type RegAblationOptions struct {
	Common
	// RegCounts are the symbolic-register slice sizes to sweep (default
	// 2, 4, 8, 16, 31). Budget bounds each point (default 30s); MaxPaths
	// bounds each sweep (default 3000).
	RegCounts []int
}

// RegAblation measures exploration cost as a function of the
// symbolic-register slice size on a fixed scenario (the OP-IMM class at
// instruction limit 1), plus the time to find an injected E6 bug.
func RegAblation(opt RegAblationOptions) *AblationResult {
	if opt.RegCounts == nil {
		opt.RegCounts = []int{2, 4, 8, 16, 31}
	}
	if opt.Budget == 0 {
		opt.Budget = 30 * time.Second
	}
	if opt.MaxPaths == 0 {
		opt.MaxPaths = 3000
	}
	// The E6 hunt stops on the first finding; only the time budget applies.
	hunt := opt.Common
	hunt.MaxPaths = 0
	res := &AblationResult{Budget: opt.Budget}

	for _, n := range opt.RegCounts {
		pt := AblationPoint{SymbolicRegs: n}

		// Exhaustive-ish sweep of the OP-IMM class.
		cfg := cosim.Config{
			ISS:             iss.FixedConfig(),
			Core:            microrv32.FixedConfig(),
			Filter:          cosim.OnlyOpcode(riscv.OpImm),
			NumSymbolicRegs: n,
			InstrLimit:      1,
		}
		rep := opt.Explore(cosim.RunFunc(cfg), core.Options{})
		pt.Paths = rep.Stats.Paths
		pt.Instr = rep.Stats.Instructions
		pt.Time = rep.Stats.Elapsed
		pt.Exhausted = rep.Exhausted

		// Time-to-bug for E6 under the same slicing.
		coreCfg := microrv32.FixedConfig()
		coreCfg.Faults = faults.Only(faults.E6)
		huntCfg := cosim.Config{
			ISS:             iss.FixedConfig(),
			Core:            coreCfg,
			Filter:          cosim.BlockSystemInstructions,
			NumSymbolicRegs: n,
			InstrLimit:      1,
		}
		t0 := time.Now()
		hrep := hunt.Explore(cosim.RunFunc(huntCfg), core.Options{StopOnFirstFinding: true})
		pt.FoundE6 = len(hrep.Findings) > 0
		pt.FoundE6In = time.Since(t0)

		res.Points = append(res.Points, pt)
	}
	return res
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sliced symbolic registers ablation (OP-IMM class, instruction limit 1, budget %s/point)\n", r.Budget)
	fmt.Fprintf(&b, "%-14s %8s %12s %10s %10s %12s\n", "SymbolicRegs", "Paths", "Instr", "Time", "Exhausted", "E6 found in")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 72))
	for _, p := range r.Points {
		e6 := "not found"
		if p.FoundE6 {
			e6 = fmtDur(p.FoundE6In)
		}
		fmt.Fprintf(&b, "%-14d %8d %12d %10s %10v %12s\n",
			p.SymbolicRegs, p.Paths, p.Instr, fmtDur(p.Time), p.Exhausted, e6)
	}
	return b.String()
}

// LimitAblationPoint measures exploration growth with the instruction limit.
type LimitAblationPoint struct {
	Limit     int
	Paths     int
	Instr     uint64
	Time      time.Duration
	Exhausted bool
}

// LimitAblationOptions configure the instruction-limit ablation study.
type LimitAblationOptions struct {
	Common
	// Limits are the instruction limits to sweep (default 1, 2). Budget
	// bounds each point (default 30s); MaxPaths bounds each sweep
	// (default 3000).
	Limits []int
}

// LimitAblation quantifies the state-space growth from instruction limit
// 1 to higher limits on the matched baseline (Table II discussion: "the
// instruction limit should be set as low as possible").
func LimitAblation(opt LimitAblationOptions) []LimitAblationPoint {
	if opt.Limits == nil {
		opt.Limits = []int{1, 2}
	}
	if opt.Budget == 0 {
		opt.Budget = 30 * time.Second
	}
	if opt.MaxPaths == 0 {
		opt.MaxPaths = 3000
	}
	var out []LimitAblationPoint
	for _, l := range opt.Limits {
		cfg := cosim.Config{
			ISS:        iss.FixedConfig(),
			Core:       microrv32.FixedConfig(),
			Filter:     cosim.Filters(cosim.BlockSystemInstructions, cosim.OnlyOpcode(riscv.OpReg)),
			InstrLimit: l,
		}
		rep := opt.Explore(cosim.RunFunc(cfg), core.Options{})
		out = append(out, LimitAblationPoint{
			Limit:     l,
			Paths:     rep.Stats.Paths,
			Instr:     rep.Stats.Instructions,
			Time:      rep.Stats.Elapsed,
			Exhausted: rep.Exhausted,
		})
	}
	return out
}

// FormatLimitAblation renders the instruction-limit ablation table.
func FormatLimitAblation(points []LimitAblationPoint) string {
	var b strings.Builder
	b.WriteString("Instruction-limit ablation (OP class, matched baseline)\n")
	fmt.Fprintf(&b, "%-7s %8s %12s %10s %10s\n", "Limit", "Paths", "Instr", "Time", "Exhausted")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 52))
	for _, p := range points {
		fmt.Fprintf(&b, "%-7d %8d %12d %10s %10v\n", p.Limit, p.Paths, p.Instr, fmtDur(p.Time), p.Exhausted)
	}
	return b.String()
}
