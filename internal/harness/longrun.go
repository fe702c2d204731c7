package harness

import (
	"fmt"
	"strings"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
)

// LongRunResult reproduces the paper's exemplary comprehensive exploration
// statistics (§V-A prose): runtime, executed instructions, completely and
// partially explored paths, and generated test cases.
type LongRunResult struct {
	Report  *core.Report
	Budget  time.Duration
	Limit   int
	NumRegs int
	Workers int
}

// LongRunOptions configure the comprehensive exploration. Common.Budget
// bounds the run; 0 means unbounded (explore until the path tree is
// exhausted), the same zero-value contract every other campaign follows —
// the 30s default lives on the symv longrun -budget flag, not here.
type LongRunOptions struct {
	Common
	// InstrLimit / NumRegs fix the workload (defaults 1 and 2).
	InstrLimit int
	NumRegs    int
}

// LongRun performs a budgeted comprehensive exploration, generating a test
// vector per completed path. On microrv32 it explores the shipped
// configuration (all instructions, VP reference); on pipecore — which has no
// as-shipped variant — it explores the clean core against the fixed ISS with
// SYSTEM opcodes blocked (no CSR file), so findings stay at zero and the
// statistics measure exploration, not the known Zicsr gap.
func LongRun(opt LongRunOptions) *LongRunResult {
	if opt.InstrLimit == 0 {
		opt.InstrLimit = 1
	}
	if opt.NumRegs == 0 {
		opt.NumRegs = 2
	}
	cfg := cosim.Config{
		InstrLimit:      opt.InstrLimit,
		NumSymbolicRegs: opt.NumRegs,
		DUTCore:         opt.Common.Core,
	}
	if opt.Common.Core == cosim.CorePipecore {
		cfg.ISS = iss.FixedConfig()
		cfg.Pipe = pipecore.Config{}
		cfg.Filter = cosim.BlockSystemInstructions
	} else {
		cfg.ISS = iss.VPConfig()
		cfg.Core = microrv32.ShippedConfig()
	}
	rep := opt.Explore(cosim.RunFunc(cfg), core.Options{GenerateTests: true})
	return &LongRunResult{Report: rep, Budget: opt.Budget, Limit: opt.InstrLimit, NumRegs: opt.NumRegs, Workers: opt.Workers}
}

// Format renders the long-run statistics paragraph.
func (r *LongRunResult) Format() string {
	var b strings.Builder
	s := r.Report.Stats
	budget := r.Budget.String()
	if r.Budget == 0 {
		budget = "unbounded"
	}
	fmt.Fprintf(&b, "Exemplary comprehensive exploration (budget %s, instruction limit %d, %d symbolic registers):\n",
		budget, r.Limit, r.NumRegs)
	fmt.Fprintf(&b, "  runtime            %s\n", s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  executed instrs    %d\n", s.Instructions)
	fmt.Fprintf(&b, "  paths (complete)   %d\n", s.Completed)
	fmt.Fprintf(&b, "  paths (partial)    %d\n", s.Partial)
	fmt.Fprintf(&b, "  test cases         %d\n", len(r.Report.TestVectors)+len(r.Report.Findings))
	fmt.Fprintf(&b, "  findings           %d\n", len(r.Report.Findings))
	fmt.Fprintf(&b, "  solver queries     %d\n", s.SolverQueries)
	fmt.Fprintf(&b, "  SAT-core queries   %d\n", s.CDCLQueries)
	fmt.Fprintf(&b, "  cache eliminated   %d (stack %d, exact %d)\n",
		s.Cache.Eliminated(), s.Cache.StackHits, s.Cache.ExactHits)
	fmt.Fprintf(&b, "  sliced queries     %d (%d constraints dropped)\n", s.Cache.SlicedQueries, s.Cache.SlicedDropped)
	fmt.Fprintf(&b, "  exhausted          %v\n", r.Report.Exhausted)
	return b.String()
}
