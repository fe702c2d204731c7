package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/qstore"
	"symriscv/internal/querycache"
)

// TestRunUsageErrors pins the unified bad-input contract across every
// subcommand: exit code 2 with an explanation on stderr, whether the problem
// is an unknown command, an unknown flag, a malformed flag value, or a
// missing operand. Every case here must fail during validation — none may
// reach an actual campaign (the replay vector rows run only the pinned
// replay that checks the vector).
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring that must appear on stderr
	}{
		{"no command", nil, "commands:"},
		{"unknown command", []string{"frobnicate"}, "unknown command"},

		{"table1 bad flag", []string{"table1", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"table2 bad flag", []string{"table2", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"hunt bad flag", []string{"hunt", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"longrun bad flag", []string{"longrun", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"longrun -fork off", []string{"longrun", "-fork", "off"}, "flag provided but not defined: -fork"},
		{"longrun -rewrite off", []string{"longrun", "-rewrite", "off"}, "flag provided but not defined: -rewrite"},
		{"ablation bad flag", []string{"ablation", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"baseline bad flag", []string{"baseline", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"replay bad flag", []string{"replay", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"trace bad flag", []string{"trace", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"cache bad flag", []string{"cache", "stats", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"lint-table bad flag", []string{"lint-table", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"lint-dut bad flag", []string{"lint-dut", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"lint-dut -sat-conflicts", []string{"lint-dut", "-sat-conflicts", "5"}, "flag provided but not defined: -sat-conflicts"},

		{"bad -cache toggle", []string{"hunt", "-cache", "maybe"}, "bad -cache"},
		{"bad -rewrite toggle", []string{"hunt", "-rewrite", "maybe"}, "flag provided but not defined: -rewrite"},
		{"bad -inprocess toggle", []string{"hunt", "-inprocess", "maybe"}, "flag provided but not defined: -inprocess"},
		{"bad -portfolio toggle", []string{"hunt", "-portfolio", "maybe"}, "flag provided but not defined: -portfolio"},
		{"bad -workers value", []string{"hunt", "-workers", "three"}, "invalid value"},

		{"bad -core value", []string{"hunt", "-core", "bogus"}, "bad -core"},
		{"table2 unknown dut", []string{"table2", "-dut", "bogus"}, "flag provided but not defined: -dut"},
		{"table2 dut/core conflict", []string{"table2", "-dut", "pipeline", "-core", "microrv32"}, "flag provided but not defined: -dut"},
		{"ablation is microrv32-only", []string{"ablation", "-core", "pipecore"}, "supports only -core microrv32"},
		{"hunt -shipped pipecore", []string{"hunt", "-core", "pipecore", "-shipped"}, "microrv32-only"},
		{"hunt -mie-bug pipecore", []string{"hunt", "-core", "pipecore", "-mie-bug"}, "microrv32-only"},
		{"table2 bad limits", []string{"table2", "-limits", "1,x"}, "bad -limits"},
		{"table2 -limits below 1", []string{"table2", "-limits", "-1", "-faults", "E6"}, "-limits -1: the instruction limit must be at least 1"},
		{"hunt -limit below 1", []string{"hunt", "-limit", "-2", "-fault", "E6"}, "-limit -2: the instruction limit must be at least 1"},
		{"longrun -limit 0", []string{"longrun", "-limit", "0"}, "-limit 0: the instruction limit must be at least 1"},
		{"replay -limit 0", []string{"replay", "-limit", "0", "x1=5"}, "-limit 0: the instruction limit must be at least 1"},
		{"longrun -regs 32", []string{"longrun", "-regs", "32"}, "-regs 32: want 1..31"},
		{"longrun -regs 0", []string{"longrun", "-regs", "0"}, "-regs 0: want 1..31"},
		{"hunt -regs 33", []string{"hunt", "-regs", "33"}, "-regs 33: want 1..31"},
		{"lint-dut -regs 40", []string{"lint-dut", "-regs", "40"}, "-regs 40: want 0..31"},
		{"lint-dut -regs -1", []string{"lint-dut", "-regs", "-1"}, "-regs -1: want 0..31"},
		{"table2 unknown fault", []string{"table2", "-faults", "E99"}, "unknown fault"},
		{"hunt unknown fault", []string{"hunt", "-fault", "E99"}, "unknown fault"},
		{"hunt unknown search", []string{"hunt", "-search", "bogus"}, "unknown search strategy"},
		{"ablation unknown kind", []string{"ablation", "-kind", "bogus"}, "unknown ablation kind"},
		{"baseline unknown fault", []string{"baseline", "-faults", "E99"}, "unknown fault"},
		{"bench removed", []string{"bench"}, "unknown command \"bench\""},

		{"replay no vector", []string{"replay"}, "no test-vector assignments"},
		{"replay malformed pair", []string{"replay", "justaname"}, "want name=hexvalue"},
		{"replay bad hex", []string{"replay", "x1=zz"}, "bad value"},
		{"replay unknown input", []string{"replay", "-fault", "E6", "-workers", "1", "bogus_name=5"},
			"bogus_name=5: bogus_name matches no symbolic input"},
		{"replay value wider than input", []string{"replay", "-fault", "E6", "-workers", "1", "imem_00000000=1ffffffff3"},
			"imem_00000000=1ffffffff3: value is wider than the 32-bit input imem_00000000"},
		{"trace missing operand", []string{"trace"}, "usage: symv trace"},

		{"cache no op", []string{"cache"}, "usage: symv cache"},
		{"cache unknown op", []string{"cache", "frobnicate"}, "unknown operation"},
		{"cache missing store", []string{"cache", "stats"}, "-store DIR is required"},
		{"cache stats -key", []string{"cache", "stats", "-store", filepath.Join(os.TempDir(), "symv-cache-key-store"), "-key", "K"}, "flag provided but not defined: -key"},

		{"lint-table unknown core", []string{"lint-table", "-core", "bogus"}, "bad -core"},
		{"lint-dut -fork", []string{"lint-dut", "-fork", "off"}, "flag provided but not defined: -fork"},
		{"lint-dut -rewrite off", []string{"lint-dut", "-rewrite", "off"}, "flag provided but not defined: -rewrite"},
		{"lint-dut -store", []string{"lint-dut", "-store", filepath.Join(os.TempDir(), "symv-lint-dut-store")}, "flag provided but not defined: -store"},
		{"lint-dut -workers", []string{"lint-dut", "-workers", "2"}, "flag provided but not defined: -workers"},
		{"lint-table -store", []string{"lint-table", "-store", filepath.Join(os.TempDir(), "symv-lint-table-store")}, "flag provided but not defined: -store"},
		{"lint-table -trace", []string{"lint-table", "-trace", filepath.Join(os.TempDir(), "symv-lint-table.jsonl")}, "flag provided but not defined: -trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if code := run(tc.args, &buf); code != 2 {
				t.Fatalf("run(%q) = %d, want 2; stderr:\n%s", tc.args, code, buf.String())
			}
			if !strings.Contains(buf.String(), tc.want) {
				t.Fatalf("run(%q) stderr missing %q:\n%s", tc.args, tc.want, buf.String())
			}
		})
	}
}

// TestHelpExitsZero pins that asking for help is not an error.
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"help", "-h", "--help"} {
		var buf bytes.Buffer
		if code := run([]string{arg}, &buf); code != 0 {
			t.Fatalf("run(%q) = %d, want 0", arg, code)
		}
		if !strings.Contains(buf.String(), "commands:") {
			t.Fatalf("run(%q) printed no usage:\n%s", arg, buf.String())
		}
	}
}

// TestReplayReproducesHuntWitness is the CLI half of the ktest-replay round
// trip: the witness of a real finding, passed to symv replay as name=hexvalue
// pairs, passes the vector check and reproduces the mismatch (exit 0).
func TestReplayReproducesHuntWitness(t *testing.T) {
	coreCfg := microrv32.FixedConfig()
	coreCfg.Faults = faults.Only(faults.E6)
	cfg := cosim.Config{ISS: iss.FixedConfig(), Core: coreCfg, InstrLimit: 1}
	rep := core.NewExplorer(cosim.RunFunc(cfg)).Explore(core.Options{StopOnFirstFinding: true, MaxTime: 60 * time.Second})
	if len(rep.Findings) != 1 {
		t.Fatalf("hunt for E6 found %d findings, want 1", len(rep.Findings))
	}
	args := []string{"replay", "-fault", "E6", "-workers", "1", "-json"}
	for name, val := range rep.Findings[0].Inputs {
		args = append(args, fmt.Sprintf("%s=%x", name, val))
	}

	out, code, stderr := runCapture(t, args)
	if code != 0 {
		t.Fatalf("replay = exit %d; stderr:\n%s", code, stderr)
	}
	var doc struct{ Reproduced bool }
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("replay -json output %q: %v", out, err)
	}
	if !doc.Reproduced {
		t.Fatalf("witness %v did not reproduce the finding %v", rep.Findings[0].Inputs, rep.Findings[0].Err)
	}
}

// runCapture runs one symv invocation with stdout redirected, returning what
// it printed there, its exit code and its stderr.
func runCapture(t *testing.T, args []string) (stdout []byte, code int, stderr string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	var errBuf bytes.Buffer
	code = run(args, &errBuf)
	os.Stdout = saved
	w.Close()
	return <-read, code, errBuf.String()
}

// TestTraceRoundTrip pins that symv trace reads what a run's -trace sink
// writes: a bounded longrun with -trace and -metrics, then the digest of its
// file, both exit 0 and the digest names the exploration and path phases.
func TestTraceRoundTrip(t *testing.T) {
	f := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, code, stderr := runCapture(t, []string{"longrun", "-budget", "0", "-max-paths", "50", "-workers", "1", "-trace", f, "-metrics"}); code != 0 {
		t.Fatalf("longrun -trace = exit %d; stderr:\n%s", code, stderr)
	}
	out, code, stderr := runCapture(t, []string{"trace", f})
	if code != 0 {
		t.Fatalf("trace = exit %d; stderr:\n%s", code, stderr)
	}
	for _, phase := range []string{"explore", "path"} {
		if !regexp.MustCompile(`(?m)^` + phase + `\s`).Match(out) {
			t.Errorf("trace digest names no %q phase:\n%s", phase, out)
		}
	}
}

// seedStore publishes a few witnesses into a fresh store directory so the
// offline cache operations have something to chew on.
func seedStore(t *testing.T) (dir, key string) {
	t.Helper()
	dir = t.TempDir()
	key = qstore.VersionKey("cmd=test")
	st, err := qstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	es := []querycache.PortableEntry{
		{Hashes: []uint64{1, 2, 3}, Sat: true, Model: querycache.Model{"x1": 7}},
		{Hashes: []uint64{2, 3}, Sat: true, Model: querycache.Model{"x1": 7}},
		{Hashes: []uint64{9}, Sat: false},
	}
	for i := range es {
		es[i].Key = querycache.KeyOf(es[i].Hashes)
	}
	if _, err := st.Persist(key, es); err != nil {
		t.Fatal(err)
	}
	return dir, key
}

// TestCacheSubcommand smoke-tests the offline store maintenance operations
// end to end: stats and gc succeed on a healthy store, distill emits a
// replayable corpus, and verify turns damage into exit code 1.
func TestCacheSubcommand(t *testing.T) {
	dir, key := seedStore(t)

	for _, op := range []string{"stats", "verify", "gc", "distill"} {
		var buf bytes.Buffer
		if code := run([]string{"cache", op, "-store", dir}, &buf); code != 0 {
			t.Fatalf("cache %s = exit %d; stderr:\n%s", op, code, buf.String())
		}
	}
	var buf bytes.Buffer
	if code := run([]string{"cache", "distill", "-store", dir, "-key", key, "-json"}, &buf); code != 0 {
		t.Fatalf("cache distill -key = exit %d; stderr:\n%s", code, buf.String())
	}

	// Truncate the (single, post-gc) segment: verify must report the damage
	// and exit 1, stats must keep working.
	segs, err := filepath.Glob(filepath.Join(dir, "*.qseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments after gc: %v", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if code := run([]string{"cache", "verify", "-store", dir}, &buf); code != 1 {
		t.Fatalf("cache verify on damaged store = exit %d, want 1; stderr:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := run([]string{"cache", "stats", "-store", dir}, &buf); code != 0 {
		t.Fatalf("cache stats on damaged store = exit %d; stderr:\n%s", code, buf.String())
	}
}
