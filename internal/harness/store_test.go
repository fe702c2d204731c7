package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/qstore"
	"symriscv/internal/rvfi"
)

// storeWorkload is the bounded exploration used by the store equivalence
// tests: small enough to be quick, big enough to populate the cache.
func storeWorkload() (core.RunFunc, core.Options) {
	cfg := cosim.Config{
		ISS:             iss.VPConfig(),
		Core:            microrv32.ShippedConfig(),
		InstrLimit:      1,
		NumSymbolicRegs: 1,
	}
	return cosim.RunFunc(cfg), core.Options{MaxPaths: 120}
}

// deterministicKey flattens a report's deterministic fields — the contract
// that must not move with store state (absent, cold, warm, corrupted).
func deterministicKey(t *testing.T, r *core.Report) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "paths=%d completed=%d partial=%d infeasible=%d queries=%d exhausted=%v\n",
		r.Stats.Paths, r.Stats.Completed, r.Stats.Partial, r.Stats.Infeasible,
		r.Stats.SolverQueries, r.Exhausted)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "finding path=%d class=%s\n", f.Path, findingClass(f.Err))
	}
	return b.String()
}

// findingClass maps a finding to its deterministic comparison key: the
// mismatch classification for co-simulation voter findings, the rendered
// error otherwise.
func findingClass(err error) string {
	var m *rvfi.Mismatch
	if errors.As(err, &m) {
		return ClassifyFor(cosim.CoreMicroRV32, m).Key()
	}
	return err.Error()
}

// TestStoreEquivalence pins the tentpole contract: the same bounded
// exploration reports byte-identical deterministic fields with no store, a
// cold store, a warm store, and a corrupted store — while the warm run
// answers part of its queries from disk (StoreHits > 0, fewer SAT-core
// queries than the cold run).
func TestStoreEquivalence(t *testing.T) {
	run, opts := storeWorkload()
	dir := t.TempDir()
	key := qstore.VersionKey("test=store-equivalence")

	// A: no store at all.
	a := Common{Workers: 1}.Explore(run, opts)
	wantKey := deterministicKey(t, a)

	// B: cold store — populates it.
	sessB, err := qstore.OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	b := Common{Workers: 1, Store: sessB}.Explore(run, opts)
	if err := sessB.Close(); err != nil {
		t.Fatal(err)
	}
	if got := deterministicKey(t, b); got != wantKey {
		t.Fatalf("cold-store report diverged:\n%s\nvs\n%s", got, wantKey)
	}
	if st := sessB.Stats(); st.Persisted == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	// C: warm store — must hit it and skip SAT-core work.
	sessC, err := qstore.OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if st := sessC.Stats(); st.Loaded == 0 {
		t.Fatalf("warm session loaded nothing: %+v", st)
	}
	c := Common{Workers: 1, Store: sessC}.Explore(run, opts)
	if err := sessC.Close(); err != nil {
		t.Fatal(err)
	}
	if got := deterministicKey(t, c); got != wantKey {
		t.Fatalf("warm-store report diverged:\n%s\nvs\n%s", got, wantKey)
	}
	if c.Stats.Cache.StoreHits == 0 {
		t.Fatal("warm run reported no store hits")
	}
	if c.Stats.CDCLQueries >= a.Stats.CDCLQueries {
		t.Fatalf("warm run did not reduce SAT-core queries: warm %d, cold %d",
			c.Stats.CDCLQueries, a.Stats.CDCLQueries)
	}

	// D: corrupted store — damage is skipped and counted, never fatal, and
	// the report still does not move.
	segs, err := filepath.Glob(filepath.Join(dir, "*.qseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt: %v", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	sessD, err := qstore.OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if st := sessD.Stats(); st.CorruptRecords == 0 {
		t.Fatalf("truncated segment not counted: %+v", st)
	}
	d := Common{Workers: 1, Store: sessD}.Explore(run, opts)
	if err := sessD.Close(); err != nil {
		t.Fatal(err)
	}
	if got := deterministicKey(t, d); got != wantKey {
		t.Fatalf("corrupted-store report diverged:\n%s\nvs\n%s", got, wantKey)
	}
}

// TestStoreParallelEquivalence checks that the persistent store composes
// with the sharded orchestrator: a warm parallel run reports the same
// deterministic fields as the sequential baseline and still hits the store.
func TestStoreParallelEquivalence(t *testing.T) {
	run, opts := storeWorkload()
	dir := t.TempDir()
	key := qstore.VersionKey("test=store-parallel")

	seq := Common{Workers: 1}.Explore(run, opts)
	wantKey := deterministicKey(t, seq)

	sess, err := qstore.OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	warmup := Common{Workers: 1, Store: sess}.Explore(run, opts)
	if got := deterministicKey(t, warmup); got != wantKey {
		t.Fatalf("store warmup diverged:\n%s\nvs\n%s", got, wantKey)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	sess2, err := qstore.OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	par := Common{Workers: 3, Store: sess2}.Explore(run, opts)
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := deterministicKey(t, par); got != wantKey {
		t.Fatalf("warm parallel report diverged:\n%s\nvs\n%s", got, wantKey)
	}
	if par.Stats.Cache.StoreHits == 0 {
		t.Fatal("warm parallel run reported no store hits")
	}
}

// pipeStoreWorkload is the pipecore twin of storeWorkload.
func pipeStoreWorkload() (core.RunFunc, core.Options) {
	cfg := cosim.Config{
		ISS:             iss.FixedConfig(),
		Filter:          cosim.BlockSystemInstructions,
		DUTCore:         cosim.CorePipecore,
		InstrLimit:      1,
		NumSymbolicRegs: 1,
	}
	return cosim.RunFunc(cfg), core.Options{MaxPaths: 120}
}

// TestStoreCoreSeparation pins the version-key contract of the -core flag:
// store entries persisted for one DUT must never answer queries for the
// other (the cores build different formulas, so a cross-core hit would be a
// silent soundness hole). A directory warmed by a microrv32 campaign yields
// zero store hits and an unchanged report for pipecore; reopening under the
// microrv32 key still reuses the original entries.
func TestStoreCoreSeparation(t *testing.T) {
	microRun, microOpts := storeWorkload()
	pipeRun, pipeOpts := pipeStoreWorkload()
	dir := t.TempDir()
	microKey := qstore.VersionKey("test=core-separation", "core=microrv32")
	pipeKey := qstore.VersionKey("test=core-separation", "core=pipecore")

	wantPipe := deterministicKey(t, Common{Workers: 1}.Explore(pipeRun, pipeOpts))
	wantMicro := deterministicKey(t, Common{Workers: 1}.Explore(microRun, microOpts))

	// Warm the shared directory from the microrv32 campaign.
	warm, err := qstore.OpenSession(dir, microKey)
	if err != nil {
		t.Fatal(err)
	}
	Common{Workers: 1, Store: warm}.Explore(microRun, microOpts)
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Persisted == 0 {
		t.Fatalf("microrv32 warmup persisted nothing: %+v", st)
	}

	// The pipecore campaign over the same directory must skip those segments
	// entirely: nothing loaded, nothing hit, report identical to store-less.
	cross, err := qstore.OpenSession(dir, pipeKey)
	if err != nil {
		t.Fatal(err)
	}
	if st := cross.Stats(); st.Loaded != 0 || st.OtherSegments == 0 {
		t.Fatalf("pipecore session sees microrv32 entries: %+v", st)
	}
	rep := Common{Workers: 1, Store: cross}.Explore(pipeRun, pipeOpts)
	if err := cross.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Cache.StoreHits != 0 {
		t.Fatalf("pipecore run hit microrv32 store entries %d times", rep.Stats.Cache.StoreHits)
	}
	if got := deterministicKey(t, rep); got != wantPipe {
		t.Fatalf("cross-core store changed the pipecore report:\n%s\nvs\n%s", got, wantPipe)
	}

	// Same-core reuse must still work beside the foreign segments.
	again, err := qstore.OpenSession(dir, microKey)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.Loaded == 0 {
		t.Fatalf("microrv32 session no longer loads its own entries: %+v", st)
	}
	rep = Common{Workers: 1, Store: again}.Explore(microRun, microOpts)
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Cache.StoreHits == 0 {
		t.Fatal("warm microrv32 run reported no store hits")
	}
	if got := deterministicKey(t, rep); got != wantMicro {
		t.Fatalf("warm microrv32 report diverged:\n%s\nvs\n%s", got, wantMicro)
	}
}

// TestLongRunUnboundedBudget pins the normalized zero-value contract:
// Budget 0 means unbounded (the exploration is stopped by other bounds or
// exhaustion), not a silent 30-second default.
func TestLongRunUnboundedBudget(t *testing.T) {
	res := LongRun(LongRunOptions{
		Common:     Common{Workers: 1, Budget: 0, MaxPaths: 5},
		InstrLimit: 1,
		NumRegs:    1,
	})
	if res.Budget != 0 {
		t.Fatalf("LongRun rewrote Budget 0 to %v", res.Budget)
	}
	if res.Report.Stats.Paths != 5 {
		t.Fatalf("path bound ignored: explored %d paths", res.Report.Stats.Paths)
	}
	if out := res.Format(); !strings.Contains(out, "budget unbounded") {
		t.Fatalf("Format does not render the unbounded budget:\n%s", out)
	}
}
