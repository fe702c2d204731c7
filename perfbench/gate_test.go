package main

import (
	"strings"
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/smt"
)

// huntOp explores one cheap Table II cell (E6, a BNE fault found within a
// few paths) the way hunt-rand does.
func huntOp(t *testing.T) op {
	t.Helper()
	c := huntCell{cosim.CoreMicroRV32, faults.E6, 1}
	o := explore(opStart(), c.String(), c.config(), core.Options{StopOnFirstFinding: true, Search: core.SearchRandom, Seed: 1}, 1)
	if len(o.out.Findings) == 0 {
		t.Fatalf("%s: no finding", c)
	}
	return o
}

// tampered returns a copy of o whose outcome edit may change.
func tampered(o op, edit func(out *outcome)) op {
	o.out.Findings = append([]finding(nil), o.out.Findings...)
	edit(&o.out)
	return o
}

func TestSameOutcomeRejectsTamperedReport(t *testing.T) {
	o := huntOp(t)
	if err := sameOutcome(o.out, o.out, true); err != nil {
		t.Fatalf("report differs from itself: %v", err)
	}
	cases := map[string]func(out *outcome){
		"completed":    func(out *outcome) { out.Stats.Completed++ },
		"queries":      func(out *outcome) { out.Stats.SolverQueries-- },
		"exhausted":    func(out *outcome) { out.Exhausted = !out.Exhausted },
		"no finding":   func(out *outcome) { out.Findings = nil },
		"path":         func(out *outcome) { out.Findings[0].Path++ },
		"class":        func(out *outcome) { out.Findings[0].Class += "x" },
		"error":        func(out *outcome) { out.Findings[0].Err += "x" },
		"sat counters": func(out *outcome) { out.Stats.SAT.Propagations++ },
	}
	for name, edit := range cases {
		if err := sameOutcome(o.out, tampered(o, edit).out, true); err == nil && name != "class" {
			t.Errorf("%s: tampered report accepted", name)
		}
	}
	// Inexact comparison (workers>1) ignores work counters and witness
	// values but not outcomes.
	for _, name := range []string{"sat counters", "error"} {
		if err := sameOutcome(o.out, tampered(o, cases[name]).out, false); err != nil {
			t.Errorf("inexact comparison rejected a %s change: %v", name, err)
		}
	}
	for _, name := range []string{"path", "class", "completed"} {
		if err := sameOutcome(o.out, tampered(o, cases[name]).out, false); err == nil {
			t.Errorf("inexact comparison accepted a %s change", name)
		}
	}
}

func TestWorkloadGatesRejectTamperedReports(t *testing.T) {
	full := outcome{Exhausted: true, Stats: core.Stats{Paths: exhaustPaths, Completed: exhaustCompleted}}
	full.Findings = make([]finding, exhaustFindings)
	for i := range full.Findings {
		full.Findings[i] = finding{Path: i, Err: "mismatch", Class: "class"}
	}
	ref := op{label: "ref", cfg: exhaustConfig(), out: full}
	b := &bench{Ref: []outcome{full}}
	if err := exhaustGate(b, 0, 0, ref); err != nil {
		t.Fatalf("exhaust gate rejects the reference: %v", err)
	}
	short := tampered(ref, func(out *outcome) { out.Findings = out.Findings[1:] })
	if err := exhaustGate(b, 0, 0, short); err == nil {
		t.Error("exhaust gate accepted 1226 findings")
	}
	notDone := tampered(ref, func(out *outcome) { out.Exhausted = false })
	if err := exhaustGate(b, 0, 0, notDone); err == nil {
		t.Error("exhaust gate accepted an unfinished tree")
	}
	// store-w2 must also have read the pre-warmed store.
	if err := storeGate(b, 0, 0, ref); err == nil || !strings.Contains(err.Error(), "store hits") {
		t.Errorf("store gate without store hits: %v", err)
	}
	hit := tampered(ref, func(out *outcome) { out.Stats.Cache.StoreHits = 1 })
	if err := storeGate(b, 0, 0, hit); err != nil {
		t.Errorf("store gate rejects a matching report: %v", err)
	}

	deepOut := outcome{Stats: core.Stats{Paths: deepPaths, Completed: deepPaths}}
	deep := op{label: "deep", cfg: deepConfig(), out: deepOut}
	b = &bench{Ref: []outcome{deepOut}}
	if err := deepGate(b, 0, 0, deep); err != nil {
		t.Fatalf("deep gate rejects the reference: %v", err)
	}
	aborted := tampered(deep, func(out *outcome) { out.Stats.Completed--; out.Stats.Partial++ })
	if err := deepGate(b, 0, 0, aborted); err == nil {
		t.Error("deep gate accepted a path that did not complete")
	}
}

func TestWitnessReplay(t *testing.T) {
	o := huntOp(t)
	var w witnessLog
	if err := w.replay(0, o); err != nil || w.count != len(o.out.Findings) {
		t.Fatalf("replayed %d of %d witnesses: %v", w.count, len(o.out.Findings), err)
	}
	// A witness already replayed is not replayed again.
	if err := w.replay(0, o); err != nil || w.count != len(o.out.Findings) {
		t.Fatalf("replayed %d witnesses, want %d: %v", w.count, len(o.out.Findings), err)
	}
	// Zeroing every input turns the faulty branch into a no-fault path.
	bad := tampered(o, func(out *outcome) {
		zero := make(smt.MapEnv, len(out.Findings[0].Inputs))
		for name := range out.Findings[0].Inputs {
			zero[name] = 0
		}
		out.Findings[0].Inputs = zero
	})
	for i := 0; i < 2; i++ {
		if err := w.replay(0, bad); err == nil {
			t.Fatalf("attempt %d: a witness that does not replay was accepted", i)
		}
	}
	// A witness another process replayed is trusted, not replayed.
	var fresh witnessLog
	fresh.trust(0, o.out)
	if err := fresh.replay(0, o); err != nil || fresh.count != 0 {
		t.Fatalf("replayed %d trusted witnesses: %v", fresh.count, err)
	}
}

// TestOutcomeRoundTrip sends an outcome through JSON, as the pass
// processes do, and requires it to compare equal to itself exactly.
func TestOutcomeRoundTrip(t *testing.T) {
	o := huntOp(t)
	path := t.TempDir() + "/out.json"
	if err := writeJSON(path, o.out); err != nil {
		t.Fatal(err)
	}
	var back outcome
	if err := readJSON(path, &back); err != nil {
		t.Fatal(err)
	}
	if err := sameOutcome(o.out, back, true); err != nil {
		t.Fatal(err)
	}
	if back.Findings[0].Inputs == nil || len(back.Findings[0].Inputs) != len(o.out.Findings[0].Inputs) {
		t.Fatalf("witness lost in transit: %v vs %v", back.Findings[0].Inputs, o.out.Findings[0].Inputs)
	}
}
