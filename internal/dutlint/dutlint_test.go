package dutlint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
)

// fixtureDUT seeds exactly one defect of each acceptance class: a dead
// multiply, an ignored free input, an illegal store strobe, and a decode
// arm fully shadowed by an earlier row. Everything else is clean, so the
// expected finding set is exact.
type fixtureDUT struct{}

func (fixtureDUT) Name() string { return "fixture" }

func (fixtureDUT) DecodeArms() []DecodeArm {
	return []DecodeArm{
		{Op: "addi", Mask: 0x7f, Match: 0x13},
		{Op: "shadowed", Mask: 0x707f, Match: 0x13}, // every match also hits row 0
		{Op: "lui", Mask: 0x7f, Match: 0x37},
	}
}

func (fixtureDUT) Run(eng *core.Engine) (*CycleResult, error) {
	ctx := eng.Context()
	a := eng.MakeSymbolic("in_a", 32)
	b := eng.MakeSymbolic("in_b", 32)
	eng.MakeSymbolic("in_unused", 32) // seeded: unconstrained input
	ctx.Mul(a, b)                     // seeded: dead logic (never used)

	res := &CycleResult{}
	res.AddRoot(ClassState, "out", ctx.Add(a, ctx.BV(32, 4)))
	res.AddRoot(ClassState, "pass", ctx.Xor(a, b))
	res.Bus = append(res.Bus, BusAccess{
		Write:  true,
		Addr:   ctx.BV(32, 0x100),
		Strobe: 0b0101, // seeded: not a legal lane pattern
		WData:  ctx.Or(a, b),
	})
	return res, nil
}

func TestFixtureSeededDefects(t *testing.T) {
	rep := Run(fixtureDUT{}, Options{SATProbe: true}, nil)
	if !rep.Exhausted {
		t.Fatalf("fixture exploration not exhausted")
	}
	var classes []string
	for _, f := range rep.Findings {
		classes = append(classes, f.Class)
	}
	want := []string{FindStrobe, FindDeadLogic, FindUnconstrained, FindUnreachArm}
	if strings.Join(classes, ",") != strings.Join(want, ",") {
		t.Fatalf("finding classes = %v, want %v\nreport:\n%s", classes, want, rep.Format(true))
	}
	byClass := map[string]Finding{}
	for _, f := range rep.Findings {
		byClass[f.Class] = f
	}
	if f := byClass[FindUnconstrained]; f.Name != "in_unused" {
		t.Errorf("unconstrained finding names %q, want in_unused", f.Name)
	}
	if f := byClass[FindUnreachArm]; f.Name != "arm01:shadowed" {
		t.Errorf("unreach-arm finding names %q, want arm01:shadowed", f.Name)
	}
	if f := byClass[FindStrobe]; f.Name != "dbus#0" || !strings.Contains(f.Detail, "0101") {
		t.Errorf("strobe finding = %+v", f)
	}
	if f := byClass[FindDeadLogic]; !strings.HasPrefix(f.Name, "hash:") || !strings.Contains(f.Detail, "bvmul") {
		t.Errorf("dead-logic finding = %+v", f)
	}
}

// TestFixtureCOI pins the exact bit-level cone of the fixture outputs:
// out = a + 4 smears a's bits (arithmetic), pass = a ^ b is bit-parallel.
func TestFixtureCOI(t *testing.T) {
	rep := Run(fixtureDUT{}, Options{}, nil)
	byName := map[string]COIEntry{}
	for _, e := range rep.COI {
		byName[e.Name] = e
	}
	out, ok := byName["out"]
	if !ok {
		t.Fatalf("no COI entry for out; got %+v", rep.COI)
	}
	if strings.Join(out.Inputs, ",") != "in_a" {
		t.Errorf("out inputs = %v, want [in_a]", out.Inputs)
	}
	pass := byName["pass"]
	if strings.Join(pass.Inputs, ",") != "in_a,in_b" {
		t.Errorf("pass inputs = %v, want [in_a in_b]", pass.Inputs)
	}
	// a ^ b: one contiguous segment, every bit i depending on exactly
	// in_a[i], in_b[i] — the analyzer merges equal-support runs, and all
	// 32 bits have *different* supports, so there are 32 single-bit rows.
	if len(pass.Bits) != 32 {
		t.Errorf("pass has %d bit rows, want 32 (bit-parallel xor)", len(pass.Bits))
	}
	if top := pass.Bits[0]; top.Hi != 31 || top.Lo != 31 ||
		strings.Join(top.Deps, ",") != "in_a[31],in_b[31]" {
		t.Errorf("pass top bit = %+v", top)
	}
	// a + 4: carry smears, one segment covering all 32 bits.
	if len(out.Bits) != 1 || out.Bits[0].Hi != 31 || out.Bits[0].Lo != 0 {
		t.Errorf("out bits = %+v, want one full-width segment", out.Bits)
	}
}

// panicDUT builds a width-mismatched add: the smt builder panics with
// *smt.BuildError, which must surface as a build-panic finding instead of
// crashing the lint.
type panicDUT struct{}

func (panicDUT) Name() string            { return "panic-fixture" }
func (panicDUT) DecodeArms() []DecodeArm { return nil }

func (panicDUT) Run(eng *core.Engine) (*CycleResult, error) {
	ctx := eng.Context()
	a := eng.MakeSymbolic("a32", 32)
	b := eng.MakeSymbolic("b16", 16)
	ctx.Add(a, b) // panics: width mismatch
	return &CycleResult{}, nil
}

func TestBuildPanicRecovered(t *testing.T) {
	rep := Run(panicDUT{}, Options{}, nil)
	if len(rep.Findings) == 0 {
		t.Fatalf("no findings for a panicking DUT")
	}
	f := rep.Findings[0]
	if f.Class != FindBuildPanic || f.Name != "bvadd" || !strings.Contains(f.Detail, "width mismatch 32 vs 16") {
		t.Fatalf("build-panic finding = %+v", f)
	}
}

// constDUT returns a & ~a as an observable: constant zero under every
// environment, but not folded by the builders — the const-cand analysis
// must flag it as a fold candidate.
type constDUT struct{}

func (constDUT) Name() string            { return "const-fixture" }
func (constDUT) DecodeArms() []DecodeArm { return nil }

func (constDUT) Run(eng *core.Engine) (*CycleResult, error) {
	ctx := eng.Context()
	a := eng.MakeSymbolic("in_a", 32)
	res := &CycleResult{}
	res.AddRoot(ClassState, "konst", ctx.And(a, ctx.Not(a)))
	res.AddRoot(ClassState, "live", ctx.Add(a, ctx.BV(32, 1)))
	return res, nil
}

func TestConstCandidate(t *testing.T) {
	rep := Run(constDUT{}, Options{}, nil)
	var consts []Finding
	for _, f := range rep.Findings {
		if f.Class == FindConstCand {
			consts = append(consts, f)
		}
	}
	if len(consts) != 1 {
		t.Fatalf("const-cand findings = %v, want exactly one", consts)
	}
	if !strings.Contains(consts[0].Detail, "0x0") || !strings.Contains(consts[0].Detail, "bvand") {
		t.Errorf("const-cand detail = %q", consts[0].Detail)
	}
}

func TestAllowlist(t *testing.T) {
	al, err := ParseAllowlist(`
// intentional fixture defects
strobe fixture dbus#0
dead-logic fixture hash:*   // term-anchored, prefix glob
unconstrained * in_unused
width pipecore never_matches
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(fixtureDUT{}, Options{SATProbe: true}, al)
	var open []string
	for _, f := range rep.Failed() {
		open = append(open, f.Class)
	}
	if strings.Join(open, ",") != FindUnreachArm {
		t.Errorf("open findings after allowlist = %v, want only unreach-arm", open)
	}
	stale := al.Stale()
	if len(stale) != 1 || stale[0].Name != "never_matches" {
		t.Errorf("stale entries = %+v, want the pipecore width entry", stale)
	}
	if _, err := ParseAllowlist("bogus-class * x"); err == nil {
		t.Errorf("unknown class accepted")
	}
	if _, err := ParseAllowlist("too few"); err == nil {
		t.Errorf("malformed line accepted")
	}
}

// TestGoldenJSON pins the -json byte layout (same contract as the
// internal/obs JSONL schema): field order, sorting, and escaping are all
// part of the report format. Regenerate with -run TestGoldenJSON -update.
func TestGoldenJSON(t *testing.T) {
	rep := Run(fixtureDUT{}, Options{SATProbe: true}, nil)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fixture.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON drifted from golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
	// Byte-stability across runs, independent of the golden file.
	rep2 := Run(fixtureDUT{}, Options{SATProbe: true}, nil)
	var buf2 bytes.Buffer
	if err := rep2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("JSON not byte-stable across identical runs")
	}
}

// repoAllowlist loads the committed allowlist the CI lint-dut step uses.
func repoAllowlist(t *testing.T) *Allowlist {
	t.Helper()
	al, err := LoadAllowlist(filepath.Join("..", "..", "LINTDUT.allow"))
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// TestMicroRV32Clean lints the repaired microrv32 exhaustively (one
// symbolic register keeps the register-slicing fan-out small for CI) and
// requires a clean verdict modulo the committed allowlist — the same gate
// the CI lint-dut step applies.
func TestMicroRV32Clean(t *testing.T) {
	rep := Run(MicroRV32(microrv32.FixedConfig(), 1), Options{SATProbe: true}, repoAllowlist(t))
	if !rep.Exhausted {
		t.Fatalf("microrv32 lint not exhausted after %d paths", rep.Paths)
	}
	if failed := rep.Failed(); len(failed) > 0 {
		t.Errorf("microrv32 lint not clean:\n%s", rep.Format(false))
	}
	if rep.AnalyzeElapsed > time.Second {
		t.Errorf("analysis phase took %v, budget is 1s", rep.AnalyzeElapsed)
	}
	t.Logf("microrv32: %d paths, %d terms, drive %v, analyze %v",
		rep.Paths, rep.Terms, rep.DriveElapsed, rep.AnalyzeElapsed)
}

func TestPipecoreClean(t *testing.T) {
	rep := Run(Pipecore(pipecore.Config{}, 1), Options{SATProbe: true}, repoAllowlist(t))
	if !rep.Exhausted {
		t.Fatalf("pipecore lint not exhausted after %d paths", rep.Paths)
	}
	if failed := rep.Failed(); len(failed) > 0 {
		t.Errorf("pipecore lint not clean:\n%s", rep.Format(false))
	}
	if rep.AnalyzeElapsed > time.Second {
		t.Errorf("analysis phase took %v, budget is 1s", rep.AnalyzeElapsed)
	}
	t.Logf("pipecore: %d paths, %d terms, drive %v, analyze %v",
		rep.Paths, rep.Terms, rep.DriveElapsed, rep.AnalyzeElapsed)
}

// TestPartialDowngrade checks that a truncated exploration reports the
// partial finding and skips the coverage analyses instead of producing
// unsound dead-logic claims.
func TestPartialDowngrade(t *testing.T) {
	rep := Run(MicroRV32(microrv32.FixedConfig(), 1), Options{MaxPaths: 3}, nil)
	if rep.Exhausted {
		t.Skip("3 paths exhausted the tree; cannot test truncation")
	}
	sawPartial := false
	for _, f := range rep.Findings {
		switch f.Class {
		case FindPartial:
			sawPartial = true
		case FindDeadLogic, FindUnconstrained, FindConstCand:
			t.Errorf("coverage finding %v reported on a truncated exploration", f)
		}
	}
	if !sawPartial {
		t.Errorf("no partial finding on a truncated exploration")
	}
}

// TestShippedMisalignedStrobes documents the known protocol deviation of
// the as-shipped core: supporting misaligned accesses by splitting them
// into two transactions produces lane patterns (e.g. 1110) outside the
// legal strobe set. The lint must surface this.
func TestShippedMisalignedStrobes(t *testing.T) {
	if testing.Short() {
		t.Skip("shipped-config lint is slow")
	}
	rep := Run(MicroRV32(microrv32.ShippedConfig(), 1), Options{}, nil)
	saw := false
	for _, f := range rep.Findings {
		if f.Class == FindStrobe {
			saw = true
		}
	}
	if !saw {
		t.Errorf("shipped misaligned-split core produced no strobe findings:\n%s", rep.Format(false))
	}
}

func ExampleReport_WriteJSON() {
	rep := Run(constDUT{}, Options{}, nil)
	var buf bytes.Buffer
	rep.WriteJSON(&buf)
	fmt.Println(strings.Contains(buf.String(), `"core":"const-fixture"`))
	// Output: true
}
