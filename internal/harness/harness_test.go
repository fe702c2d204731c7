package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/obs"
	"symriscv/internal/qstore"
	"symriscv/internal/riscv"
)

// expectedRowKeys returns the row identities this reproduction is expected
// to regenerate (the paper's Table I minus the "SHU" typo row — see
// DESIGN.md).
func expectedRowKeys() []string {
	out := make([]string, 0, len(paperRowOrder))
	for _, k := range paperRowOrder {
		switch k {
		case "SB|Missing alignment check", "mimpid|Missing trap at write":
			// SB cannot be misaligned; mimpid is not listed in the paper.
			continue
		}
		out = append(out, k)
	}
	return out
}

// TestTable1Reproduces checks that the Table I campaign regenerates every
// expected row (the paper's table minus the documented typo rows).
func TestTable1Reproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	res := RunTable1(Table1Options{Common: Common{Budget: 90 * time.Second}})
	got := make(map[string]Table1Row, len(res.Rows))
	for _, row := range res.Rows {
		got[row.Class.Key()] = row
	}
	for _, want := range expectedRowKeys() {
		if _, ok := got[want]; !ok {
			t.Errorf("missing Table I row: %s", want)
		}
	}
	t.Logf("\n%s", res.Format())
}

// TestTable2AllFaultsFoundLimit1 checks the headline Table II result: every
// injected error is found at instruction limit 1.
func TestTable2AllFaultsFoundLimit1(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	res := RunTable2(Table2Options{
		PerCellTime: 120 * time.Second,
		Limits:      []int{1},
	})
	for _, row := range res.Rows {
		c := row.Cells[1]
		if !c.Found {
			t.Errorf("%s not found at limit 1 (%d paths, %s)", row.Fault, c.Paths+c.Partial, c.Time)
		}
	}
	t.Logf("\n%s", res.Format())
}

// TestTable2SubsetBothLimits runs a fast subset at both limits to cover the
// two-limit plumbing and the Sum/Median rows.
func TestTable2SubsetBothLimits(t *testing.T) {
	res := RunTable2(Table2Options{
		PerCellTime: 60 * time.Second,
		Faults:      []faults.Fault{faults.E0, faults.E3, faults.E6},
	})
	for _, row := range res.Rows {
		for _, l := range res.Limits {
			if !row.Cells[l].Found {
				t.Errorf("%s not found at limit %d", row.Fault, l)
			}
		}
	}
	found, sum := res.Sum(1)
	if found != 3 || sum.Instr == 0 {
		t.Errorf("sum row broken: found=%d instr=%d", found, sum.Instr)
	}
	med := res.Median(1)
	if med.Instr == 0 {
		t.Error("median row broken")
	}
	out := res.Format()
	if !strings.Contains(out, "Sum:") || !strings.Contains(out, "Median:") {
		t.Error("format missing summary rows")
	}
}

func TestClassifierRowOrderCovers(t *testing.T) {
	// Every expected key must have a rank inside the paper order list.
	for _, k := range expectedRowKeys() {
		found := false
		for _, o := range paperRowOrder {
			if o == k {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected key %s missing from paper order", k)
		}
	}
}

func TestLongRunSmoke(t *testing.T) {
	res := LongRun(LongRunOptions{Common: Common{Workers: 1, Budget: 2 * time.Second}, InstrLimit: 1, NumRegs: 2})
	if res.Report.Stats.Paths == 0 {
		t.Fatal("long run explored no paths")
	}
	out := res.Format()
	if !strings.Contains(out, "paths (complete)") {
		t.Error("format broken")
	}
}

func TestLimitAblationSmoke(t *testing.T) {
	pts := LimitAblation(LimitAblationOptions{Common: Common{Workers: 1, Budget: 5 * time.Second, MaxPaths: 200}, Limits: []int{1}})
	if len(pts) != 1 || pts[0].Paths == 0 {
		t.Fatalf("limit ablation broken: %+v", pts)
	}
}

// TestBaselineComparison runs the symbolic-vs-fuzzing study on a fast fault
// subset and checks its qualitative shape: symbolic finds everything;
// constrained fuzzing misses the decode fault E0.
func TestBaselineComparison(t *testing.T) {
	res := RunBaseline(BaselineOptions{
		Common:    Common{Budget: 30 * time.Second},
		MaxTrials: 5000,
		Faults:    []faults.Fault{faults.E0, faults.E6},
		Seed:      11,
	})
	byFault := map[faults.Fault]BaselineRow{}
	for _, row := range res.Rows {
		byFault[row.Fault] = row
	}
	for _, f := range []faults.Fault{faults.E0, faults.E6} {
		if !byFault[f].SymFound {
			t.Errorf("symbolic execution must find %s", f)
		}
	}
	if byFault[faults.E0].ValidFound {
		t.Error("constrained fuzzing cannot trigger E0 (reserved encoding)")
	}
	if !byFault[faults.E6].ValidFound {
		t.Error("constrained fuzzing should find E6 quickly")
	}
	out := res.Format()
	if !strings.Contains(out, "NOT FOUND") {
		t.Error("format should show the missed fault")
	}
	t.Logf("\n%s", out)
}

// TestLongRunCoverage verifies the "high coverage test set" claim: an
// exhaustive one-instruction exploration must generate test vectors covering
// (nearly) every RV32I+Zicsr mnemonic plus the illegal class.
func TestLongRunCoverage(t *testing.T) {
	res := LongRun(LongRunOptions{Common: Common{Workers: 1, Budget: 60 * time.Second}, InstrLimit: 1, NumRegs: 2})
	if !res.Report.Exhausted {
		t.Skip("exploration not exhausted within budget; coverage claim not assessable")
	}
	cov := Coverage(TestSetInputs(res.Report))
	if cov.Vectors == 0 {
		t.Fatal("no vectors")
	}
	// Expect every executable mnemonic to appear (47 incl. "invalid").
	if cov.Distinct < 44 {
		t.Fatalf("coverage too low: %d distinct mnemonics\n%s", cov.Distinct, cov.Format())
	}
	for _, must := range []string{"add", "sub", "lw", "sw", "beq", "jal", "jalr", "csrrw", "wfi", "ecall", "invalid", "slli"} {
		if cov.ByMnemonic[must] == 0 {
			t.Errorf("mnemonic %s not covered", must)
		}
	}
	t.Logf("coverage: %d vectors, %d distinct mnemonics", cov.Vectors, cov.Distinct)
}

func TestRegSliceAblationSmoke(t *testing.T) {
	res := RegAblation(RegAblationOptions{Common: Common{Workers: 1, Budget: 10 * time.Second, MaxPaths: 400}, RegCounts: []int{2, 4}})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Paths == 0 || !res.Points[0].FoundE6 {
		t.Fatalf("2-register point broken: %+v", res.Points[0])
	}
	if res.Points[1].Paths <= res.Points[0].Paths {
		t.Errorf("path count should grow with the symbolic slice: %d vs %d",
			res.Points[1].Paths, res.Points[0].Paths)
	}
	if !strings.Contains(res.Format(), "SymbolicRegs") {
		t.Error("format broken")
	}
}

func TestTable2JSONRoundTrip(t *testing.T) {
	res := RunTable2(Table2Options{
		PerCellTime: 30 * time.Second,
		Limits:      []int{1},
		Faults:      []faults.Fault{faults.E6},
	})
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Table2Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || !back.Rows[0].Cells[1].Found {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestTable2ParallelMatchesSequential runs the cell pool with its cells
// sharing one observability recorder and one witness store session, as
// symv table2 -parallel with -trace and -store does, and checks the cells
// against a sequential run and the shared sinks against the cells. Run it
// under -race: the pool's cells write both sinks concurrently.
func TestTable2ParallelMatchesSequential(t *testing.T) {
	opts := Table2Options{
		PerCellTime: 60 * time.Second,
		Limits:      []int{1},
		Faults:      []faults.Fault{faults.E5, faults.E6},
	}
	seq := RunTable2(opts)
	sess, err := qstore.OpenSession(t.TempDir(), qstore.VersionKey("test=table2-parallel"))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.Options{Trace: io.Discard})
	opts.Parallel = 2
	opts.Common = Common{Obs: rec, Store: sess}
	par := RunTable2(opts)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var completed, partial uint64
	for i := range seq.Rows {
		s, p := seq.Rows[i].Cells[1], par.Rows[i].Cells[1]
		if s.Found != p.Found || s.Instr != p.Instr || s.Paths != p.Paths || s.Partial != p.Partial {
			t.Errorf("%s: parallel diverges: %+v vs %+v", seq.Rows[i].Fault, s, p)
		}
		completed += uint64(p.Paths)
		partial += uint64(p.Partial)
	}
	ctr := rec.Snapshot().Counters
	if ctr[core.CtrCompleted] != completed || ctr[core.CtrPartial] != partial {
		t.Errorf("recorder counts %d completed, %d partial; the cells %d, %d",
			ctr[core.CtrCompleted], ctr[core.CtrPartial], completed, partial)
	}
	if sess.Stats().Persisted == 0 {
		t.Error("no cell persisted an entry to the shared store session")
	}
}

// TestTable1FixedConfigIsClean is the regression view of Table I: with every
// shipped bug repaired (fixed core, fixed VP) and CSR generation excluded —
// the paper's own recipe for filtering the inherent CSR-surface and timing
// mismatches (§V-B) — the probe campaign must produce zero rows.
func TestTable1FixedConfigIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	issCfg := iss.FixedConfig()
	coreCfg := microrv32.FixedConfig()
	res := RunTable1(Table1Options{
		ISSConfig:  &issCfg,
		CoreConfig: &coreCfg,
		Probes: []Probe{
			{Name: "loads", Filter: cosim.OnlyOpcode(riscv.OpLoad), Limit: 1},
			{Name: "stores", Filter: cosim.OnlyOpcode(riscv.OpStore), Limit: 1},
			{Name: "all-no-system", Filter: cosim.BlockSystemInstructions, Limit: 1},
			{Name: "all-no-system-l2", Filter: cosim.BlockSystemInstructions, Limit: 2},
		},
		Common: Common{Budget: 60 * time.Second, MaxPaths: 2000},
	})
	if len(res.Rows) != 0 {
		t.Fatalf("fixed configuration still yields %d rows:\n%s", len(res.Rows), res.Format())
	}
}

// TestTable1CSRMismatchesAreInherent documents the complement: even on the
// fixed pair, the CSR probes still surface the implementation differences
// the paper classifies as mismatches by design (abstract-vs-cycle-accurate
// counters, the VP's larger CSR surface).
func TestTable1CSRMismatchesAreInherent(t *testing.T) {
	issCfg := iss.FixedConfig()
	coreCfg := microrv32.FixedConfig()
	res := RunTable1(Table1Options{
		ISSConfig:  &issCfg,
		CoreConfig: &coreCfg,
		Probes:     []Probe{{Name: "system", Filter: cosim.OnlyOpcode(riscv.OpSystem), Limit: 1}},
		Common:     Common{Budget: 60 * time.Second},
	})
	found := map[string]bool{}
	for _, row := range res.Rows {
		found[row.Class.Key()] = true
	}
	for _, want := range []string{
		"mcycle|Cycle Count Mismatch",
		"minstret|Cycle Count Mismatch",
	} {
		if !found[want] {
			t.Errorf("inherent mismatch %s not surfaced:\n%s", want, res.Format())
		}
	}
}

// longRunGolden is the SHA-256 of the microrv32 limit-1 longrun report at workers 1
// (see TestLongRunAnswersGolden). A change that deliberately changes an
// answer, a witness value or a work counter updates it, and says why. It
// last changed when the SAT counters Restarts and Removed (both zero in this
// run) left the stats; every answer and witness stayed the same.
const longRunGolden = "3a5efe4f5b94f7ebbbd8410f886524b8d689464b6ba1102bf784baf190dfbc3b"

// TestLongRunAnswersGolden anchors every answer of three explorations: the
// exhaustive limit-1 tree of each core and the first 3000 DFS paths of the
// pipecore limit-2 tree. The JSON of each whole report with Elapsed zeroed
// — path and cache counters, SAT work counters, every finding's path, error
// text and witness, every test vector — is hashed and compared with a
// committed constant. Optimisations of the query layers and refactors of
// either core must leave them unchanged.
func TestLongRunAnswersGolden(t *testing.T) {
	cases := []struct {
		name   string
		core   cosim.CoreKind
		limit  int
		paths  int
		golden string
	}{
		{"microrv32-limit1", "", 1, 0, longRunGolden},
		{"pipecore-limit1", cosim.CorePipecore, 1, 0, "ffce462ae715167d3c3ac036b9f3af10e5a15b0ac3aad58e3a37f974b78a86fc"},
		{"pipecore-limit2-3000", cosim.CorePipecore, 2, 3000, "cfc342d093284245514c988540029a848bc617e6fd66e52bd430fa61f3881888"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := LongRun(LongRunOptions{
				Common:     Common{Workers: 1, Core: tc.core, MaxPaths: tc.paths},
				InstrLimit: tc.limit, NumRegs: 2,
			})
			rep := res.Report
			rep.Stats.Elapsed = 0
			type finding struct {
				Path   int
				Err    string
				Inputs map[string]uint64
			}
			doc := struct {
				Stats       any
				Exhausted   bool
				Findings    []finding
				TestVectors any
			}{rep.Stats, rep.Exhausted, nil, rep.TestVectors}
			for _, f := range rep.Findings {
				doc.Findings = append(doc.Findings, finding{f.Path, f.Err.Error(), f.Inputs})
			}
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.golden {
				t.Fatalf("longrun report hashes to %s, want %s (%d paths, %d findings, %d vectors)",
					got, tc.golden, rep.Stats.Paths, len(rep.Findings), len(rep.TestVectors))
			}
		})
	}
}
