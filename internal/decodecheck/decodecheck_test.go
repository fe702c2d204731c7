package decodecheck

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"symriscv/internal/faults"
	"symriscv/internal/microrv32"
	"symriscv/internal/riscv"
	"symriscv/internal/rtl"
)

// TestCleanTable proves the shipped table is well-formed, overlap-free and
// complete against the reference decoder.
func TestCleanTable(t *testing.T) {
	rep := Check(Config{Faults: faults.None})
	if !rep.OK() {
		t.Errorf("clean table not OK:\n%s", rep.Format())
	}
	if len(rep.Deviation) != 0 {
		t.Errorf("clean table reported deviations:\n%s", rep.Format())
	}
	if rep.Checked < 7000 {
		t.Errorf("sweep too small: %d words", rep.Checked)
	}
}

// TestFaultConfigs verifies all ten single-fault configurations. E0–E2
// alter the decode table and must surface as *intentional* deviations —
// present in the report, not silently passed — while E3–E9 are
// execution-stage faults that leave the table untouched.
func TestFaultConfigs(t *testing.T) {
	decodeFaults := map[faults.Fault]string{faults.E0: "slli", faults.E1: "srli", faults.E2: "srai"}
	for _, f := range faults.All() {
		rep := Check(Config{Faults: faults.Only(f)})
		if !rep.OK() {
			t.Errorf("fault %s: table not OK:\n%s", f, rep.Format())
		}
		op, isDecodeFault := decodeFaults[f]
		if !isDecodeFault {
			if len(rep.Deviation) != 0 {
				t.Errorf("fault %s: execution-stage fault reported decode deviations:\n%s", f, rep.Format())
			}
			continue
		}
		if len(rep.Deviation) == 0 {
			t.Errorf("fault %s: widened %s mask produced no deviation — silently passed", f, op)
			continue
		}
		for _, d := range rep.Deviation {
			if d.Fault != f || !d.Intentional {
				t.Errorf("fault %s: deviation misattributed: %s", f, d)
			}
			if d.Got != op {
				t.Errorf("fault %s: deviation decodes %q, want %q", f, d.Got, op)
			}
			if d.Want != "illegal" {
				t.Errorf("fault %s: deviation spec verdict %q, want illegal", f, d.Want)
			}
			if d.Word&(1<<25) == 0 {
				t.Errorf("fault %s: deviation word %#08x lacks bit 25", f, d.Word)
			}
		}
	}
}

// TestUnintentionalDeviation checks that a fault-widened table verified
// under the *clean* configuration fails: the deviation exists but no
// active fault explains it.
func TestUnintentionalDeviation(t *testing.T) {
	widened := microrv32.DecodeTable(faults.Only(faults.E0))
	rep := CheckEntries(widened, Config{Faults: faults.None})
	if rep.OK() {
		t.Fatalf("E0-widened table passed under clean config:\n%s", rep.Format())
	}
	if len(rep.Gaps) == 0 {
		t.Fatalf("expected unexplained gaps, got none:\n%s", rep.Format())
	}
}

// TestInjectedOverlap injects a deliberately overlapping row and asserts
// the verifier names the conflicting mask/match pair and produces a
// concrete 32-bit counterexample that matches both rows.
func TestInjectedOverlap(t *testing.T) {
	entries := microrv32.DecodeTable(faults.None)
	// Same mask/match as ADDI (opcode 0x13, funct3 0) but a different op:
	// every ADDI encoding now matches two semantically different rows.
	bogus := rtl.Row{Mask: 0x0000707f, Match: 0x00000013, Op: rtl.OpXORI}
	entries = append(entries, bogus)

	rep := CheckEntries(entries, Config{Faults: faults.None})
	if rep.OK() {
		t.Fatalf("verifier accepted a table with an injected overlap")
	}
	var hit *Overlap
	for i := range rep.Overlaps {
		o := &rep.Overlaps[i]
		if o.J == len(entries)-1 && o.A.Op == rtl.OpADDI {
			hit = o
			break
		}
	}
	if hit == nil {
		t.Fatalf("no overlap against the injected row reported:\n%s", rep.Format())
	}
	// The counterexample must be concrete and match both rows.
	if hit.Word&hit.A.Mask != hit.A.Match || hit.Word&hit.B.Mask != hit.B.Match {
		t.Errorf("counterexample %#08x does not match both rows", hit.Word)
	}
	// The report names both rows' mask/match pairs and the witness word.
	msg := hit.String()
	for _, want := range []string{
		"addi", "xori",
		fmt.Sprintf("mask=%#08x", bogus.Mask),
		fmt.Sprintf("match=%#08x", bogus.Match),
		fmt.Sprintf("%#08x", hit.Word),
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("overlap message missing %q: %s", want, msg)
		}
	}
	// JSON reports name the rows' micro-ops by mnemonic.
	if b, err := json.Marshal(hit); err != nil || !strings.Contains(string(b), `"Op":"xori"`) {
		t.Errorf("overlap JSON %s (err %v) lacks the injected row's mnemonic", b, err)
	}
	// And the witness really is an ADDI encoding per the reference decoder.
	if mn := riscv.Decode(hit.Word).Mn.String(); mn != "addi" {
		t.Errorf("counterexample decodes to %q, want addi", mn)
	}
}

// TestMalformedRow checks the well-formedness screen.
func TestMalformedRow(t *testing.T) {
	entries := []rtl.Row{{Mask: 0x7f, Match: 0xff, Op: rtl.OpADDI}}
	rep := CheckEntries(entries, Config{Faults: faults.None})
	if rep.OK() || len(rep.Malformed) != 1 || rep.Malformed[0] != 0 {
		t.Fatalf("malformed row not flagged: %+v", rep.Malformed)
	}
}

// TestCheckAll exercises the symv lint-table entry point on microrv32.
func TestCheckAll(t *testing.T) {
	reps := CheckAllFor(CoreMicroRV32)
	if len(reps) != 1+int(faults.NumFaults) {
		t.Fatalf("CheckAllFor returned %d reports", len(reps))
	}
	for _, rep := range reps {
		if !rep.OK() {
			t.Errorf("config %s failed:\n%s", rep.Config, rep.Format())
		}
	}
}

// TestPipecoreCleanTable verifies the second DUT's decode table against the
// reference decoder restricted to pipecore's implemented subset (no Zicsr,
// no MRET).
func TestPipecoreCleanTable(t *testing.T) {
	rep := Check(Config{Core: CorePipecore, Faults: faults.None})
	if !rep.OK() {
		t.Errorf("pipecore clean table not OK:\n%s", rep.Format())
	}
	if len(rep.Deviation) != 0 {
		t.Errorf("pipecore clean table reported deviations:\n%s", rep.Format())
	}
	if rep.Checked < 7000 {
		t.Errorf("sweep too small: %d words", rep.Checked)
	}
}

// TestPipecoreFaultGrid runs the full configuration grid for pipecore: the
// decode faults E0–E2 must surface as intentional deviations on the widened
// shift rows, exactly as for microrv32.
func TestPipecoreFaultGrid(t *testing.T) {
	reps := CheckAllFor(CorePipecore)
	if len(reps) != 1+int(faults.NumFaults) {
		t.Fatalf("CheckAllFor returned %d reports", len(reps))
	}
	sawDecodeFault := 0
	for _, rep := range reps {
		if !rep.OK() {
			t.Errorf("pipecore config %s failed:\n%s", rep.Config, rep.Format())
		}
		if len(rep.Deviation) > 0 {
			sawDecodeFault++
			for _, d := range rep.Deviation {
				if !d.Intentional {
					t.Errorf("pipecore config %s: unintentional deviation %s", rep.Config, d)
				}
			}
		}
	}
	// E0, E1, E2.
	if sawDecodeFault != 3 {
		t.Errorf("expected 3 configurations with decode deviations, got %d", sawDecodeFault)
	}
}

// TestPipecoreCSRGap proves the core-specific reference restriction works
// both ways: a pipecore table that *did* accept CSR instructions would be
// flagged against the restricted reference.
func TestPipecoreCSRGap(t *testing.T) {
	entries := entriesFor(Config{Core: CorePipecore})
	entries = append(entries, rtl.Row{Mask: 0x707f, Match: 0x1073, Op: rtl.OpCSRRW})
	rep := CheckEntries(entries, Config{Core: CorePipecore, Faults: faults.None})
	if rep.OK() {
		t.Fatalf("pipecore table with a csrrw row passed the restricted reference")
	}
	found := false
	for _, g := range rep.Gaps {
		if g.Got == "csrrw" && g.Want == "illegal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no csrrw gap reported:\n%s", rep.Format())
	}
}
