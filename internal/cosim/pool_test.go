package cosim

import (
	"reflect"
	"runtime"
	"testing"

	"symriscv/internal/core"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/parexplore"
	"symriscv/internal/pipecore"
	"symriscv/internal/riscv"
	"symriscv/internal/smt"
)

// freshRun is the reference for the pooled RunFunc: a testbench built from
// scratch on every path.
func freshRun(cfg Config) core.RunFunc {
	return func(eng *core.Engine) error { return RunFunc(cfg)(eng) }
}

// poolCases are the scenarios the pooled testbench is compared on: the
// shipped core's whole limit-1 tree (CSR writes, stores, every trap), a
// budgeted limit-2 pipecore tree of loads and stores with an injected LB
// fault (loads of bytes an earlier path stored, findings), and a pinned
// symbolic-interrupt scenario (the pin filter and the interrupt line).
func poolCases() []struct {
	name string
	cfg  Config
	opts core.Options
} {
	pipe := Config{ // loads and stores only
		InstrLimit: 2, DUTCore: CorePipecore, ISS: iss.FixedConfig(),
		Pipe: pipecore.Config{Faults: faults.Only(faults.E8)}, Filter: OnlyMasked(0x5f, riscv.OpLoad),
	}
	irq := interruptConfig()
	irq.InstrLimit = 2
	irq.Core.IgnoreMIEBug = true
	irq.Pin = smt.MapEnv{"reg_x1": 3, "csr_mie": riscv.MieMEIE}
	return []struct {
		name string
		cfg  Config
		opts core.Options
	}{
		{"microrv32-l1", Config{ISS: iss.VPConfig(), Core: microrv32.ShippedConfig()}, core.Options{GenerateTests: true}},
		{"pipecore-l2", pipe, core.Options{MaxPaths: 600, GenerateTests: true}},
		{"interrupts-pinned", irq, core.Options{MaxPaths: 300, GenerateTests: true}},
	}
}

// requireIdenticalReports demands equal reports apart from Elapsed: every
// statistic (term and SAT-variable counts included), each finding's error
// and witness, and every test vector.
func requireIdenticalReports(t *testing.T, got, want *core.Report) {
	t.Helper()
	g, w := *got, *want
	g.Stats.Elapsed, w.Stats.Elapsed = 0, 0
	if !reflect.DeepEqual(g.Stats, w.Stats) {
		t.Fatalf("stats differ:\n got:  %+v\n want: %+v", g.Stats, w.Stats)
	}
	if len(g.Findings) != len(w.Findings) || len(g.TestVectors) != len(w.TestVectors) {
		t.Fatalf("got %d findings and %d vectors, want %d and %d",
			len(g.Findings), len(g.TestVectors), len(w.Findings), len(w.TestVectors))
	}
	for i := range g.Findings {
		if !reflect.DeepEqual(g.Findings[i], w.Findings[i]) {
			t.Fatalf("finding %d differs:\n got:  %v %v\n want: %v %v", i,
				g.Findings[i].Err, g.Findings[i].Inputs, w.Findings[i].Err, w.Findings[i].Inputs)
		}
	}
	for i := range g.TestVectors {
		if !reflect.DeepEqual(g.TestVectors[i], w.TestVectors[i]) {
			t.Fatalf("test vector %d differs:\n got:  %+v\n want: %+v", i, g.TestVectors[i], w.TestVectors[i])
		}
	}
	if g.Exhausted != w.Exhausted {
		t.Fatalf("exhausted = %v, want %v", g.Exhausted, w.Exhausted)
	}
}

// TestPooledRunMatchesFresh: exploring with RunFunc's pooled, reset-in-place
// testbench reports exactly what a testbench built fresh for every path
// reports. The same RunFunc then serves a two-worker parallel exploration:
// its shards share the pool from their own goroutines, and each builds its
// own term context in its own order, so the states they draw hold terms
// memoized in another context; counts and finding classes must still match.
func TestPooledRunMatchesFresh(t *testing.T) {
	for _, tc := range poolCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want := core.NewExplorer(freshRun(tc.cfg)).Explore(tc.opts)
			if want.Stats.Paths < 100 {
				t.Fatalf("scenario too small to exercise reuse: %v", want.Stats)
			}
			pooled := RunFunc(tc.cfg)
			requireIdenticalReports(t, core.NewExplorer(pooled).Explore(tc.opts), want)
			requireSameReport(t, parexplore.Explore(pooled, tc.opts, 2), want)
		})
	}
}

// TestResetAllocs: readying a warmed testbench for the next path of the same
// exploration allocates nothing. Like testing.AllocsPerRun it averages over
// many resets, each the first of its path, with integer division, so a
// stray runtime allocation during one of them does not count.
func TestResetAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range poolCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.WithDefaults()
			cfg.Pin = nil // pins compose a fresh filter closure per path
			rs := new(runState)
			var before, after runtime.MemStats
			paths, mallocs := 0, uint64(0)
			x := core.NewExplorer(func(eng *core.Engine) error {
				paths++
				runtime.ReadMemStats(&before)
				rs.reset(eng, cfg)
				runtime.ReadMemStats(&after)
				if paths > 1 {
					mallocs += after.Mallocs - before.Mallocs
				}
				return rs.loop()
			})
			x.Explore(core.Options{MaxPaths: 200})
			if n := mallocs / uint64(paths-1); n != 0 {
				t.Fatalf("reset allocates %d times per path over %d paths, want 0", n, paths-1)
			}
		})
	}
}
