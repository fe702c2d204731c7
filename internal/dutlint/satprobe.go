package dutlint

import (
	"fmt"

	"symriscv/internal/decodecheck"
	"symriscv/internal/rtl"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// probeArms SAT-probes whether each decode arm is selectable under the
// walk order: arm i is reachable iff some instruction word matches row i
// and no earlier row. The answers are cross-checked against the purely
// bitwise shadow analysis from internal/decodecheck — a full pairwise
// shadow (an earlier row's mask is a subset of arm i's and the matches
// agree on it) proves unreachability without a solver, so the two methods
// must agree. Each query is one 32-bit word under at most a few dozen
// mask/match (in)equalities, so it is decided outright.
func probeArms(rep *Report, dut DUT) {
	arms := dut.DecodeArms()
	rep.Arms = len(arms)
	if len(arms) == 0 {
		return
	}

	// The probe runs in its own context and solver: its queries must not
	// pollute the transition-relation DAG the structural analyses walked.
	ctx := smt.NewContext()
	sol := solver.New(ctx)
	insn := ctx.Var("insn", 32)

	match := func(a rtl.Row) *smt.Term {
		return ctx.Eq(ctx.And(insn, ctx.BV(32, uint64(a.Mask))), ctx.BV(32, uint64(a.Match)))
	}

	// Bitwise answer: arm i is shadowed when some earlier row matches
	// every word arm i matches (maskJ ⊆ maskI and matches agree on maskJ).
	shadowed := make([]bool, len(arms))
	for i, a := range arms {
		for j := 0; j < i; j++ {
			b := arms[j]
			if b.Mask&^a.Mask == 0 && a.Match&b.Mask == b.Match {
				shadowed[i] = true
				break
			}
		}
	}
	overlaps := decodecheck.FindOverlaps(arms)
	overlapsEarlier := make([]bool, len(arms))
	for _, o := range overlaps {
		overlapsEarlier[o.J] = true
	}

	for i, a := range arms {
		assumptions := []*smt.Term{match(a)}
		for j := 0; j < i; j++ {
			assumptions = append(assumptions, ctx.BNot(match(arms[j])))
		}
		name := fmt.Sprintf("arm%02d:%s", i, a.Op)
		switch sol.Check(assumptions...) {
		case solver.Unsat:
			rep.Findings = append(rep.Findings, Finding{
				Class: FindUnreachArm, Name: name,
				Detail: fmt.Sprintf("decode arm %d (%s mask=%#08x match=%#08x) is never selected: every matching word hits an earlier row", i, a.Op, a.Mask, a.Match),
			})
			// Cross-check: an unreachable arm must at least overlap some
			// earlier row bitwise; a solver-unreachable arm with no
			// bitwise overlap means one of the two analyses is wrong.
			if !overlapsEarlier[i] && !shadowed[i] {
				rep.Findings = append(rep.Findings, Finding{
					Class: FindProbeXCheck, Name: name,
					Detail: "SAT probe says unreachable but decodecheck finds no overlapping earlier row",
				})
			}
		case solver.Sat:
			// Cross-check the other direction: a full bitwise shadow
			// proves unreachability, so Sat contradicts it.
			if shadowed[i] {
				rep.Findings = append(rep.Findings, Finding{
					Class: FindProbeXCheck, Name: name,
					Detail: "decodecheck proves a full shadow by an earlier row but the SAT probe found a selecting word",
				})
			}
		}
	}
}
