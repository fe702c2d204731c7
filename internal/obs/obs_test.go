package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenScenario drives one deterministic single-handle trace: an explore
// root, a path with a bare solver check plus a cache probe that falls
// through to the solver, a second empty path, then counters and a gauge.
func goldenScenario(trace *bytes.Buffer) *Recorder {
	r := New(Options{Trace: trace, Label: "golden"})
	h := r.NewHandle(0)
	root := h.Start(PhaseExplore)
	p0 := h.Start(PhasePath)
	p0.SetPath(0)
	h.Start(PhaseSolverCheck).End()
	cp := h.Start(PhaseCacheProbe)
	h.Start(PhaseSolverCheck).End()
	cp.End()
	p0.End()
	p1 := h.Start(PhasePath)
	p1.SetPath(1)
	p1.End()
	root.End()
	h.Add("solver.cdcl", 2)
	h.Add("cache.queries", 1)
	h.Gauge("sat.vars", 42)
	h.Flush()
	r.Close()
	return r
}

var timingFields = regexp.MustCompile(`("t0"|"dur"|"ns"):\d+`)

// normalizeTimings zeroes the wall-time fields, which are the only
// nondeterministic parts of the schema.
func normalizeTimings(s string) string {
	return timingFields.ReplaceAllString(s, `${1}:0`)
}

// TestGoldenJSONL pins the trace schema: field order, event order, kid
// sorting and span-id assignment must all stay byte-stable (traces are
// meant to be diffable between runs and commits).
func TestGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	goldenScenario(&buf)
	got := normalizeTimings(buf.String())
	goldenPath := filepath.Join("testdata", "trace_golden.jsonl")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("trace schema drifted from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestSpanNesting checks structural invariants on a real (unnormalized)
// trace: every parent id exists (or is 0), children are contained in the
// parent's window, and kid rollups are sorted by name.
func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	goldenScenario(&buf)
	sum, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSummary: %v", err)
	}
	if sum.Spans != 6 {
		t.Errorf("spans = %d, want 6", sum.Spans)
	}

	type spanEv struct{ t0, dur uint64 }
	spans := map[uint64]spanEv{}
	var events []Event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if ev.Ev != "span" {
			continue
		}
		spans[ev.ID] = spanEv{ev.T0, ev.Dur}
		events = append(events, ev)
	}
	for _, ev := range events {
		if ev.Par != 0 {
			par, ok := spans[ev.Par]
			if !ok {
				t.Errorf("span %d has unknown parent %d", ev.ID, ev.Par)
				continue
			}
			if ev.T0 < par.t0 || ev.T0+ev.Dur > par.t0+par.dur {
				t.Errorf("span %d [%d,%d] escapes parent %d [%d,%d]",
					ev.ID, ev.T0, ev.T0+ev.Dur, ev.Par, par.t0, par.t0+par.dur)
			}
		}
		for i := 1; i < len(ev.Kids); i++ {
			if ev.Kids[i-1].Name >= ev.Kids[i].Name {
				t.Errorf("span %d kids not sorted: %q >= %q", ev.ID, ev.Kids[i-1].Name, ev.Kids[i].Name)
			}
		}
	}
}

// TestNilRecorderSafe exercises the disabled path: every entry point must
// be a no-op on a nil recorder.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	h := r.NewHandle(3)
	if h != nil {
		t.Fatalf("nil recorder returned live handle")
	}
	sp := h.Start(PhasePath)
	sp.SetPath(7)
	sp.End()
	h.Add("x", 1)
	h.Gauge("g", 2)
	h.Flush()
	h.SetBase(nil)
	if snap := r.Snapshot(); snap.Counters != nil || snap.Spans != 0 {
		t.Errorf("nil snapshot not zero: %+v", snap)
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if s := r.FormatSnapshot(); s != "" {
		t.Errorf("nil FormatSnapshot = %q", s)
	}
	ran := false
	LabelWorker(nil, 0, PhaseExplore, func() { ran = true })
	if !ran {
		t.Error("LabelWorker skipped f on nil recorder")
	}
}

// TestMergeRace hammers concurrent handle flushes, span closes and
// snapshots; run under -race this checks the shard/merge synchronization.
func TestMergeRace(t *testing.T) {
	var buf bytes.Buffer
	r := New(Options{Trace: &buf, Label: "race"})
	root := r.NewHandle(0).Start(PhaseExplore)
	const workers = 8
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.NewHandle(w)
			h.SetBase(root)
			for i := 0; i < 200; i++ {
				sp := h.Start(PhasePath)
				sp.SetPath(i)
				h.Start(PhaseSolverCheck).End()
				sp.End()
				h.Add("solver.cdcl", 1)
				h.Gauge("sat.vars", uint64(w*1000+i))
				if i%50 == 49 {
					h.Flush()
				}
			}
			h.Flush()
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	root.End()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := r.Snapshot()
	if got := snap.Counters["solver.cdcl"]; got != workers*200 {
		t.Errorf("merged counter = %d, want %d", got, workers*200)
	}
	if got := snap.Gauges["sat.vars"]; got != workers*1000+199 {
		t.Errorf("merged gauge = %d, want %d (max rule)", got, workers*1000+199)
	}
	ph := snap.Phases[PhasePath]
	if ph.Count != workers*200 {
		t.Errorf("path phase count = %d, want %d", ph.Count, workers*200)
	}
	sum, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSummary: %v", err)
	}
	// explore root + per-worker (path + solver-check) spans.
	if want := uint64(1 + 2*workers*200); sum.Spans != want {
		t.Errorf("trace spans = %d, want %d", sum.Spans, want)
	}
}

// TestSummaryDigest checks the digest numbers and the rendered tables.
func TestSummaryDigest(t *testing.T) {
	var buf bytes.Buffer
	goldenScenario(&buf)
	sum, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSummary: %v", err)
	}
	if sum.Label != "golden" {
		t.Errorf("label = %q", sum.Label)
	}
	want := map[string]uint64{
		PhaseExplore: 1, PhasePath: 2, PhaseSolverCheck: 2, PhaseCacheProbe: 1,
	}
	got := map[string]uint64{}
	for _, p := range sum.Phases {
		got[p.Name] = p.Count
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("phase %s count = %d, want %d", k, got[k], v)
		}
	}
	if sum.Counters["solver.cdcl"] != 2 || sum.Counters["cache.queries"] != 1 {
		t.Errorf("counters = %v", sum.Counters)
	}
	if sum.Gauges["sat.vars"] != 42 {
		t.Errorf("gauges = %v", sum.Gauges)
	}
	out := sum.Format(0)
	for _, needle := range []string{"label=golden", "path", "solver-check", "solver.cdcl", "sat.vars", "histogram"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Format missing %q in:\n%s", needle, out)
		}
	}
	if top := sum.Format(1); strings.Count(top, "\n") >= strings.Count(out, "\n") {
		t.Errorf("Format(1) did not truncate phase rows")
	}
}

// TestFormatSnapshot smoke-tests the live -metrics rendering.
func TestFormatSnapshot(t *testing.T) {
	r := New(Options{Label: "bench"})
	h := r.NewHandle(0)
	sp := h.Start(PhasePath)
	time.Sleep(time.Millisecond)
	sp.End()
	h.Add("explore.paths", 1)
	h.Flush()
	out := r.FormatSnapshot()
	for _, needle := range []string{"label=bench", "path", "explore.paths"} {
		if !strings.Contains(out, needle) {
			t.Errorf("FormatSnapshot missing %q in:\n%s", needle, out)
		}
	}
}
