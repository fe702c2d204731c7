// Benchmarks regenerating the paper's evaluation artefacts. One benchmark
// per table/figure plus the ablations called out in DESIGN.md:
//
//   - BenchmarkTable1Campaign — Table I (errors & mismatches catalogue)
//   - BenchmarkTable2         — Table II (one sub-benchmark per injected
//     fault and instruction limit; the reported metric is time-to-bug)
//   - BenchmarkTable2Pipeline — the Table II analogue on the pipelined core
//   - BenchmarkLongRun        — the §V-A exemplary exploration statistics
//   - BenchmarkAblationSlicedRegs — sliced vs wide symbolic register files
//   - BenchmarkAblationInstrLimit — instruction limit 1 vs 2 growth
//   - BenchmarkEngineAblation — branch optimizations on vs off
//   - BenchmarkInterruptHunt / BenchmarkBaselineFuzzing — the symbolic
//     interrupt extension and the random-fuzzing baseline
//   - BenchmarkSolverDecodeQuery / BenchmarkEnginePathStep — substrate costs
//
// The query-cache probe path has its own micro-benchmark,
// BenchmarkCacheProbe in internal/querycache.
package symriscv_test

import (
	"fmt"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/fuzz"
	"symriscv/internal/harness"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// BenchmarkTable1Campaign times one full Table I probe campaign (shipped
// core vs shipped VP, all probe scenarios).
func BenchmarkTable1Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.RunTable1(harness.Table1Options{
			PerProbeTime: 60 * time.Second,
		})
		if len(res.Rows) < 25 {
			b.Fatalf("campaign degraded: only %d rows", len(res.Rows))
		}
		b.ReportMetric(float64(len(res.Rows)), "rows")
		b.ReportMetric(float64(res.Stats.Paths), "paths")
	}
}

// BenchmarkTable2 regenerates each Table II cell: time-to-first-mismatch for
// every injected fault at instruction limits 1 and 2.
func BenchmarkTable2(b *testing.B) {
	for _, limit := range []int{1, 2} {
		for _, f := range faults.All() {
			f, limit := f, limit
			b.Run(fmt.Sprintf("%s/limit%d", f, limit), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					coreCfg := microrv32.FixedConfig()
					coreCfg.Faults = faults.Only(f)
					cfg := cosim.Config{
						ISS:        iss.FixedConfig(),
						Core:       coreCfg,
						Filter:     cosim.BlockSystemInstructions,
						InstrLimit: limit,
					}
					x := core.NewExplorer(cosim.RunFunc(cfg))
					rep := x.Explore(core.Options{
						StopOnFirstFinding: true,
						MaxTime:            120 * time.Second,
					})
					if len(rep.Findings) == 0 {
						b.Fatalf("%s not found at limit %d", f, limit)
					}
					b.ReportMetric(float64(rep.Stats.Instructions), "instrs")
					b.ReportMetric(float64(rep.Stats.Completed), "paths")
					b.ReportMetric(float64(rep.Stats.Partial), "partial")
				}
			})
		}
	}
}

// BenchmarkLongRun times a budgeted comprehensive exploration (the paper's
// §V-A exemplary run, scaled to a fixed wall budget).
func BenchmarkLongRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.LongRun(harness.LongRunOptions{
			Common:     harness.Common{Workers: 1, Budget: 5 * time.Second},
			InstrLimit: 1,
			NumRegs:    2,
		})
		b.ReportMetric(float64(res.Report.Stats.Paths), "paths")
		b.ReportMetric(float64(res.Report.Stats.Instructions), "instrs")
		b.ReportMetric(float64(len(res.Report.TestVectors)), "testvecs")
	}
}

// BenchmarkAblationSlicedRegs measures the cost of exploring the OP-IMM
// class as the symbolic register slice grows — the paper's motivation for
// slicing (unsliced exploration "requires more than 30 days").
func BenchmarkAblationSlicedRegs(b *testing.B) {
	for _, regs := range []int{2, 4, 8} {
		regs := regs
		b.Run(fmt.Sprintf("regs%d", regs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cosim.Config{
					ISS:             iss.FixedConfig(),
					Core:            microrv32.FixedConfig(),
					Filter:          cosim.OnlyOpcode(riscv.OpImm),
					NumSymbolicRegs: regs,
					InstrLimit:      1,
				}
				x := core.NewExplorer(cosim.RunFunc(cfg))
				rep := x.Explore(core.Options{MaxPaths: 800, MaxTime: 60 * time.Second})
				b.ReportMetric(float64(rep.Stats.Paths), "paths")
			}
		})
	}
}

// BenchmarkAblationInstrLimit measures exploration growth from instruction
// limit 1 to 2 on one ALU class (Table II discussion).
func BenchmarkAblationInstrLimit(b *testing.B) {
	for _, limit := range []int{1, 2} {
		limit := limit
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cosim.Config{
					ISS:        iss.FixedConfig(),
					Core:       microrv32.FixedConfig(),
					Filter:     cosim.OnlyOpcode(riscv.OpReg),
					InstrLimit: limit,
				}
				x := core.NewExplorer(cosim.RunFunc(cfg))
				rep := x.Explore(core.Options{MaxPaths: 700, MaxTime: 60 * time.Second})
				b.ReportMetric(float64(rep.Stats.Paths), "paths")
				b.ReportMetric(float64(rep.Stats.Instructions), "instrs")
			}
		})
	}
}

// BenchmarkSolverDecodeQuery measures the incremental QF_BV query pattern of
// the decode chains: repeated mask/match feasibility checks on one solver.
func BenchmarkSolverDecodeQuery(b *testing.B) {
	ctx := smt.NewContext()
	s := solver.New(ctx)
	insn := ctx.Var("insn", 32)
	opcode := ctx.And(insn, ctx.BV(32, 0x707f))
	matches := []uint64{0x33, 0x13, 0x63, 0x03, 0x23, 0x37, 0x17, 0x6f, 0x67, 0x73}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := matches[i%len(matches)]
		if s.Check(ctx.Eq(opcode, ctx.BV(32, m))) != solver.Sat {
			b.Fatal("decode query must be satisfiable")
		}
	}
}

// BenchmarkEnginePathStep measures the first 25 paths of the limit-1 tree,
// each replayed from cycle 0, including all solver and query-cache traffic.
func BenchmarkEnginePathStep(b *testing.B) {
	cfg := cosim.Config{
		ISS:        iss.FixedConfig(),
		Core:       microrv32.FixedConfig(),
		Filter:     cosim.BlockSystemInstructions,
		InstrLimit: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := core.NewExplorer(cosim.RunFunc(cfg))
		rep := x.Explore(core.Options{MaxPaths: 25})
		if rep.Stats.Paths == 0 {
			b.Fatal("no paths explored")
		}
	}
}

// BenchmarkInterruptHunt measures the symbolic-interrupt extension: time to
// find the missing-MIE-gate fault.
func BenchmarkInterruptHunt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		coreCfg := microrv32.FixedConfig()
		coreCfg.IgnoreMIEBug = true
		cfg := cosim.Config{
			ISS:                iss.FixedConfig(),
			Core:               coreCfg,
			Filter:             cosim.BlockSystemInstructions,
			SymbolicInterrupts: true,
			StartPC:            0x100,
		}
		x := core.NewExplorer(cosim.RunFunc(cfg))
		rep := x.Explore(core.Options{StopOnFirstFinding: true, MaxTime: 60 * time.Second})
		if len(rep.Findings) == 0 {
			b.Fatal("MIE bug not found")
		}
		b.ReportMetric(float64(rep.Stats.Paths), "paths")
	}
}

// BenchmarkBaselineFuzzing measures the fuzzing baseline's time-to-bug for a
// reachable fault (E6), complementing BenchmarkTable2's symbolic numbers.
func BenchmarkBaselineFuzzing(b *testing.B) {
	coreCfg := microrv32.FixedConfig()
	coreCfg.Faults = faults.Only(faults.E6)
	base := cosim.Config{ISS: iss.FixedConfig(), Core: coreCfg, InstrLimit: 1}
	for i := 0; i < b.N; i++ {
		c := fuzz.Campaign{Seed: int64(i + 1), Strategy: fuzz.StrategyValid, Base: base}
		res := c.Run(500000, 60*time.Second)
		if !res.Found {
			b.Fatal("fuzzing failed to find E6")
		}
		b.ReportMetric(float64(res.Trials), "trials")
	}
}

// BenchmarkTable2Pipeline reruns the error-injection study against the
// pipelined second core (the generality experiment).
func BenchmarkTable2Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.RunTable2(harness.Table2Options{
			PerCellTime: 60 * time.Second,
			Limits:      []int{1},
			Common:      harness.Common{Core: cosim.CorePipecore},
		})
		found, sum := res.Sum(1)
		if found != len(res.Rows) {
			b.Fatalf("pipeline campaign found %d/%d", found, len(res.Rows))
		}
		b.ReportMetric(float64(sum.Instr), "instrs")
	}
}

// BenchmarkEngineAblation quantifies the engine's branch optimizations
// (implication shortcut + eager sibling pruning) on an OP-IMM class sweep.
func BenchmarkEngineAblation(b *testing.B) {
	for _, mode := range []struct {
		name  string
		noOpt bool
	}{{"optimized", false}, {"ablated", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := cosim.Config{
					ISS:        iss.FixedConfig(),
					Core:       microrv32.FixedConfig(),
					Filter:     cosim.OnlyOpcode(riscv.OpImm),
					InstrLimit: 1,
				}
				x := core.NewExplorer(cosim.RunFunc(cfg))
				rep := x.Explore(core.Options{
					MaxTime:               60 * time.Second,
					NoBranchOptimizations: mode.noOpt,
				})
				if !rep.Exhausted {
					b.Fatal("sweep not exhausted")
				}
				b.ReportMetric(float64(rep.Stats.SolverQueries), "queries")
				b.ReportMetric(float64(rep.Stats.Paths), "scheduled-paths")
			}
		})
	}
}
