package harness

import (
	"symriscv/internal/dutlint"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
)

// LintDUTOptions configure one static DUT lint (symv lint-dut). The shared
// Common block supplies the ablation toggles, budget and observability
// sink; exploration is always sequential here (the lint's collector unions
// observables across paths in walk order, and a full lint of either core
// runs in well under a second).
type LintDUTOptions struct {
	Common
	// NumRegs is the number of symbolic initial registers handed to the
	// adapters (0 selects dutlint.DefaultNumRegs).
	NumRegs int
	// SATProbe enables the bounded decode-arm reachability probe.
	SATProbe bool
	// SATConflictBudget bounds each probe query (0 = the dutlint default).
	SATConflictBudget uint64
	// Allow is the parsed allowlist, or nil.
	Allow *dutlint.Allowlist
}

// dutlintOptions maps the harness options onto the analyzer's own.
func (o LintDUTOptions) dutlintOptions() dutlint.Options {
	return dutlint.Options{
		MaxPaths:          o.MaxPaths,
		MaxTime:           o.Budget,
		NoQueryCache:      o.Cache.Disabled(),
		Obs:               o.Obs,
		SATProbe:          o.SATProbe,
		SATConflictBudget: o.SATConflictBudget,
	}
}

// LintDUT lints one core by name ("microrv32" or "pipecore"), using each
// core's repaired configuration — the pre-flight question is "is the
// translated model structurally sound", so the known-buggy shipped
// configuration is not the default subject. Unknown names return nil.
func LintDUT(name string, o LintDUTOptions) *dutlint.Report {
	var dut dutlint.DUT
	switch name {
	case "microrv32":
		dut = dutlint.MicroRV32(microrv32.FixedConfig(), o.NumRegs)
	case "pipecore":
		dut = dutlint.Pipecore(pipecore.Config{}, o.NumRegs)
	default:
		return nil
	}
	return dutlint.Run(dut, o.dutlintOptions(), o.Allow)
}

// LintDUTCores resolves a -core flag value to the core list to lint:
// "both" (or "") expands to every supported core.
func LintDUTCores(flag string) []string {
	switch flag {
	case "", "both", "all":
		return []string{"microrv32", "pipecore"}
	default:
		return []string{flag}
	}
}
