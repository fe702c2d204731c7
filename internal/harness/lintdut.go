package harness

import (
	"time"

	"symriscv/internal/dutlint"
	"symriscv/internal/microrv32"
	"symriscv/internal/obs"
	"symriscv/internal/pipecore"
)

// LintDUTOptions configure one static DUT lint (symv lint-dut). The lint
// always explores sequentially and without a witness store: its collector
// unions observables across paths in walk order, and a full lint of either
// core runs in well under a second.
type LintDUTOptions struct {
	// MaxPaths and MaxTime bound the exploration (0 = unbounded).
	MaxPaths int
	MaxTime  time.Duration
	// NoCache disables the query-elimination layer (symv -cache off).
	NoCache bool
	// Obs, when non-nil, records exploration spans and counters.
	Obs *obs.Recorder
	// NumRegs is the number of symbolic initial registers handed to the
	// adapters (0 selects dutlint.DefaultNumRegs).
	NumRegs int
	// SATProbe enables the decode-arm reachability probe.
	SATProbe bool
	// Allow is the parsed allowlist, or nil.
	Allow *dutlint.Allowlist
}

// dutlintOptions maps the harness options onto the analyzer's own.
func (o LintDUTOptions) dutlintOptions() dutlint.Options {
	return dutlint.Options{
		MaxPaths:     o.MaxPaths,
		MaxTime:      o.MaxTime,
		NoQueryCache: o.NoCache,
		Obs:          o.Obs,
		SATProbe:     o.SATProbe,
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
