package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"symriscv/internal/obs"
)

// TestParseTraceSelfTimes derives self times from a fixture where
// solver-check nests under cache-probe, which nests under rtl-step.
func TestParseTraceSelfTimes(t *testing.T) {
	f, err := os.Open("testdata/nested.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := parseTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]phaseTotal{
		obs.PhaseExplore:      {Count: 1, DurNs: 2500, SelfNs: 500},
		obs.PhasePath:         {Count: 1, DurNs: 2000, SelfNs: 300},
		obs.PhaseRTLStep:      {Count: 1, DurNs: 1200, SelfNs: 350},
		obs.PhaseCacheProbe:   {Count: 1, DurNs: 700, SelfNs: 300},
		obs.PhaseSolverCheck:  {Count: 2, DurNs: 550, SelfNs: 550},
		obs.PhaseISSStep:      {Count: 1, DurNs: 300, SelfNs: 300},
		obs.PhaseVoterCompare: {Count: 1, DurNs: 200, SelfNs: 200},
	}
	if len(l.phases) != len(want) {
		t.Fatalf("phases %v, want %v", l.phases, want)
	}
	for name, w := range want {
		if got := l.phases[name]; got != w {
			t.Errorf("%s: %+v, want %+v", name, got, w)
		}
	}
	if err := l.checkSum(); err != nil {
		t.Error(err)
	}
}

// TestParseTraceRejectsOvercoveredSpan refuses a span whose children
// cover more than its own duration.
func TestParseTraceRejectsOvercoveredSpan(t *testing.T) {
	in := `{"ev":"span","id":2,"par":1,"w":0,"name":"path","t0":0,"dur":10,"kids":[{"name":"rtl-step","n":1,"ns":11}]}` + "\n"
	if _, err := parseTrace(strings.NewReader(in)); err == nil {
		t.Fatal("accepted children longer than their parent")
	}
}

// TestLedgerOfLiveRecorder parses what internal/obs itself writes, with a
// parallel worker's path span outside the explore span's rollup.
func TestLedgerOfLiveRecorder(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.New(obs.Options{Trace: &buf})
	h := rec.NewHandle(0)
	root := h.Start(obs.PhaseExplore)
	p := h.Start(obs.PhasePath)
	step := h.Start(obs.PhaseRTLStep)
	probe := h.Start(obs.PhaseCacheProbe)
	h.Start(obs.PhaseSolverCheck).End()
	probe.End()
	step.End()
	p.End()
	w := rec.NewHandle(1)
	w.SetBase(root)
	wp := w.Start(obs.PhasePath)
	w.Start(obs.PhaseISSStep).End()
	wp.End()
	root.End()
	h.Flush()
	w.Flush()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := parseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.checkSum(); err != nil {
		t.Error(err)
	}
	if got := l.phases[obs.PhasePath].Count; got != 2 {
		t.Errorf("path spans %d, want 2", got)
	}
}
