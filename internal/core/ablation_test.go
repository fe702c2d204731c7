package core_test

import (
	"errors"
	"slices"
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/harness"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/rvfi"
)

// TestNoBranchOptimizationsEquivalence: the ablation mode must explore the
// same path tree, just less efficiently (infeasible siblings get scheduled
// and rejected at replay instead of being pruned eagerly, and no branch or
// concretization is decided from the path's own constraints). Besides a
// small program it runs the exhaustive limit-1 trees of both cores, where
// the entailment shortcuts decide most decode, CSR and register-select
// branches: both modes must agree on completed and partial paths and on
// the multiset of finding classes.
func TestNoBranchOptimizationsEquivalence(t *testing.T) {
	t.Run("program", func(t *testing.T) {
		prog := func(e *core.Engine) error {
			ctx := e.Context()
			v := e.MakeSymbolic("v", 8)
			e.Assume(ctx.Ult(v, ctx.BV(8, 64)))
			if e.Branch(ctx.Ult(v, ctx.BV(8, 32))) {
				e.Branch(ctx.Ult(v, ctx.BV(8, 16)))
			}
			e.Branch(ctx.Ult(v, ctx.BV(8, 128))) // implied by the assume
			return nil
		}
		opt := core.NewExplorer(prog).Explore(core.Options{})
		abl := core.NewExplorer(prog).Explore(core.Options{NoBranchOptimizations: true})
		if opt.Stats.Completed != abl.Stats.Completed {
			t.Fatalf("completed paths differ: %d vs %d", opt.Stats.Completed, abl.Stats.Completed)
		}
		if abl.Stats.Infeasible == 0 {
			t.Error("ablation mode should schedule (and reject) infeasible siblings")
		}
		if opt.Stats.Infeasible != 0 {
			t.Error("optimized mode should prune infeasible siblings eagerly")
		}
	})

	trees := []struct {
		name string
		cfg  cosim.Config
	}{
		{"microrv32-limit1", cosim.Config{ISS: iss.VPConfig(), Core: microrv32.ShippedConfig(), InstrLimit: 1}},
		{"pipecore-limit1", cosim.Config{DUTCore: cosim.CorePipecore, ISS: iss.FixedConfig(),
			Filter: cosim.BlockSystemInstructions, InstrLimit: 1}},
	}
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("exhaustive co-simulation trees")
			}
			run := cosim.RunFunc(tc.cfg)
			opt := core.NewExplorer(run).Explore(core.Options{})
			abl := core.NewExplorer(run).Explore(core.Options{NoBranchOptimizations: true})
			if !opt.Exhausted || !abl.Exhausted {
				t.Fatalf("trees not exhausted: %v / %v", opt.Exhausted, abl.Exhausted)
			}
			if opt.Stats.Completed != abl.Stats.Completed || opt.Stats.Partial != abl.Stats.Partial {
				t.Fatalf("completed/partial differ: %d/%d vs ablated %d/%d",
					opt.Stats.Completed, opt.Stats.Partial, abl.Stats.Completed, abl.Stats.Partial)
			}
			if got, want := findingClasses(t, tc.cfg.DUTCore, abl), findingClasses(t, tc.cfg.DUTCore, opt); !slices.Equal(got, want) {
				t.Fatalf("finding classes differ: %d ablated vs %d default findings", len(got), len(want))
			}
			if abl.Stats.Infeasible == 0 {
				t.Error("ablation mode should schedule (and reject) infeasible siblings")
			}
			if abl.Stats.Implied != 0 {
				t.Errorf("ablation mode decided %d branches and concretizations from the path", abl.Stats.Implied)
			}
			if opt.Stats.Implied == 0 {
				t.Error("default mode decided nothing from the path")
			}
		})
	}
}

// findingClasses returns the sorted Table I classes of a report's findings.
func findingClasses(t *testing.T, kind cosim.CoreKind, rep *core.Report) []string {
	t.Helper()
	out := make([]string, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		var m *rvfi.Mismatch
		if !errors.As(f.Err, &m) {
			t.Fatalf("path %d: finding is not a voter mismatch: %v", f.Path, f.Err)
		}
		out = append(out, harness.ClassifyFor(kind, m).Key())
	}
	slices.Sort(out)
	return out
}
