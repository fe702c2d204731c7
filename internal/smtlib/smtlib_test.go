package smtlib

import (
	"strings"
	"testing"
)

func runScript(t *testing.T, src string) string {
	t.Helper()
	var out strings.Builder
	in := NewInterp(&out)
	if err := in.Run(src); err != nil {
		t.Fatalf("script failed: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

const satWithModelScript = `
	(set-logic QF_BV)
	(declare-const x (_ BitVec 8))
	(declare-const y (_ BitVec 8))
	(assert (= (bvadd x y) #x64))
	(assert (bvult x #x0a))
	(check-sat)
	(get-model)
`

func TestSatWithModel(t *testing.T) {
	out := runScript(t, satWithModelScript)
	if !strings.Contains(out, "sat") {
		t.Fatalf("expected sat:\n%s", out)
	}
	if !strings.Contains(out, "define-fun x () (_ BitVec 8)") {
		t.Fatalf("missing model for x:\n%s", out)
	}
}

const unsatScript = `
	(declare-const x (_ BitVec 16))
	(assert (bvult x (_ bv5 16)))
	(assert (bvugt x (_ bv200 16)))
	(check-sat)
`

func TestUnsat(t *testing.T) {
	out := runScript(t, unsatScript)
	if strings.TrimSpace(out) != "unsat" {
		t.Fatalf("expected unsat, got %q", out)
	}
}

// identities are bit-vector identities that must be valid (their negation
// unsat) over 32-bit x and y.
var identities = []string{
	"(= (bvadd x y) (bvadd y x))",
	"(= (bvand x x) x)",
	"(= (bvxor x x) #x00000000)",
	"(= (bvsub x y) (bvadd x (bvneg y)))",
	"(= (bvshl x (_ bv1 32)) (bvadd x x))",
	"(= ((_ zero_extend 16) ((_ extract 15 0) x)) (bvand x #x0000ffff))",
	"(= (bvnot x) (bvxor x #xffffffff))",
	"(=> (bvult x y) (bvule x y))",
	"(= (ite (bvult x y) x y) (ite (bvuge x y) y x))",
	"(= (concat ((_ extract 31 16) x) ((_ extract 15 0) x)) x)",
}

// identityScript asserts the negation of an identity.
func identityScript(id string) string {
	return `
		(declare-const x (_ BitVec 32))
		(declare-const y (_ BitVec 32))
		(assert (not ` + id + `))
		(check-sat)
	`
}

func TestOperatorsEndToEnd(t *testing.T) {
	for _, id := range identities {
		out := runScript(t, identityScript(id))
		if strings.TrimSpace(out) != "unsat" {
			t.Errorf("identity %s: got %q", id, out)
		}
	}
}

const signedComparisonsScript = `
	(declare-const x (_ BitVec 8))
	(assert (bvslt x #x00))
	(assert (bvsgt x #x80))
	(check-sat)
	(get-value (x))
`

func TestSignedComparisons(t *testing.T) {
	out := runScript(t, signedComparisonsScript)
	if !strings.Contains(out, "sat") || !strings.Contains(out, "(x #x") {
		t.Fatalf("signed range query failed:\n%s", out)
	}
}

const boolDeclarationsScript = `
	(declare-const p Bool)
	(declare-const q Bool)
	(assert (and p (not q)))
	(check-sat)
	(get-model)
`

func TestBoolDeclarations(t *testing.T) {
	out := runScript(t, boolDeclarationsScript)
	if !strings.Contains(out, "sat") {
		t.Fatalf("bool script failed:\n%s", out)
	}
	if !strings.Contains(out, "(define-fun p () Bool true)") ||
		!strings.Contains(out, "(define-fun q () Bool false)") {
		t.Fatalf("bool model wrong:\n%s", out)
	}
}

const incrementalAssertsScript = `
	(declare-const x (_ BitVec 8))
	(assert (bvugt x #x10))
	(check-sat)
	(assert (bvult x #x05))
	(check-sat)
`

func TestIncrementalAsserts(t *testing.T) {
	var out strings.Builder
	in := NewInterp(&out)
	if err := in.Run(incrementalAssertsScript); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 || lines[0] != "sat" || lines[1] != "unsat" {
		t.Fatalf("incremental answers = %v", lines)
	}
}

// parseErrorScripts are malformed scripts Run must reject with an error,
// never a panic: syntax errors, unknown commands and symbols, and terms the
// builders refuse (bad indices, widths out of range, mismatched operands).
var parseErrorScripts = []string{
	"(assert",
	"(frobnicate x)",
	"(assert (bvadd x))",
	"(declare-const x (_ BitVec 99))",
	"(declare-const x (_ BitVec 8)) (declare-const x (_ BitVec 8))",
	"(assert (= x y))",
	"(get-model)",
	"(declare-const x (_ BitVec 8)) (assert (= ((_) x) x))",
	"(declare-const x (_ BitVec 8)) (assert (= ((_ extract 3) x) x))",
	"(declare-const x (_ BitVec 8)) (declare-const y (_ BitVec 4)) (assert (= (bvadd x y) x))",
	"(assert (= (_ bv1 0) (_ bv1 0)))",
	"(declare-const x (_ BitVec 8)) (assert (= ((_ extract 9 0) x) #x000))",
	"(declare-const x (_ BitVec 8)) (assert (= ((_ zero_extend 100) x) x))",
	"(assert (= (_ bv1 -3) (_ bv1 -3)))",
}

func TestParseErrors(t *testing.T) {
	for _, src := range parseErrorScripts {
		var out strings.Builder
		if err := NewInterp(&out).Run(src); err == nil {
			t.Errorf("script %q should fail", src)
		}
	}
}

const commentsScript = `
	; a comment
	(declare-const x (_ BitVec 4)) ; trailing
	(assert (= x #b1010))
	(check-sat)
	(get-value (x))
`

func TestComments(t *testing.T) {
	out := runScript(t, commentsScript)
	if !strings.Contains(out, "(x #xa)") {
		t.Fatalf("binary literal/comment handling broken:\n%s", out)
	}
}

const exitStopsExecutionScript = `
	(declare-const x (_ BitVec 8))
	(check-sat)
	(exit)
	(frobnicate)
`

func TestExitStopsExecution(t *testing.T) {
	out := runScript(t, exitStopsExecutionScript)
	if !strings.Contains(out, "sat") {
		t.Fatal("check-sat before exit did not run")
	}
}

const divisionScript = `
	(declare-const x (_ BitVec 8))
	(assert (= (bvudiv x #x03) #x14))
	(assert (= (bvurem x #x03) #x02))
	(check-sat)
	(get-value (x))
`

const divisionByZeroScript = `
	(declare-const x (_ BitVec 8))
	(assert (distinct (bvudiv x #x00) #xff))
	(check-sat)
`

func TestDivisionOperators(t *testing.T) {
	out := runScript(t, divisionScript)
	if !strings.Contains(out, "sat") || !strings.Contains(out, "(x #x3e)") {
		t.Fatalf("division query failed:\n%s", out) // 0x3e = 62 = 3*20+2
	}
	out = runScript(t, divisionByZeroScript)
	if strings.TrimSpace(out) != "unsat" {
		t.Fatalf("division-by-zero semantics: got %q", out)
	}
}

const letScript = `
	(declare-const x (_ BitVec 8))
	(assert (let ((y (bvadd x #x01)) (z #x02))
	          (= (bvmul y z) #x0a)))
	(check-sat)
	(get-value (x))
`

const letShadowingScript = `
	(declare-const x (_ BitVec 8))
	(assert (= (let ((x #x05)) (let ((x (bvadd x #x01))) x)) #x06))
	(check-sat)
`

func TestLetBindings(t *testing.T) {
	out := runScript(t, letScript)
	if !strings.Contains(out, "(x #x04)") { // (4+1)*2 = 10
		t.Fatalf("let evaluation wrong:\n%s", out)
	}
	// Shadowing: inner binding wins, outer restored afterwards.
	out = runScript(t, letShadowingScript)
	if !strings.Contains(out, "sat") {
		t.Fatalf("let shadowing broken:\n%s", out)
	}
	// Malformed lets fail.
	var sink strings.Builder
	if err := NewInterp(&sink).Run(`(assert (let ((x)) true))`); err == nil {
		t.Error("malformed let should fail")
	}
}

const pushPopScript = `
	(declare-const x (_ BitVec 8))
	(assert (bvugt x #x10))
	(push)
	(assert (bvult x #x05))
	(check-sat)
	(pop)
	(check-sat)
`

func TestPushPop(t *testing.T) {
	out := runScript(t, pushPopScript)
	answers := strings.Fields(out)
	if len(answers) != 2 || answers[0] != "unsat" || answers[1] != "sat" {
		t.Fatalf("push/pop answers = %v", answers)
	}
	var sink strings.Builder
	if err := NewInterp(&sink).Run(`(pop)`); err == nil {
		t.Error("pop without push should fail")
	}
}
