// Command perfbench is symriscv's benchmark. It runs one workload for a
// fixed time, gates every exploration on a correctness check, and prints
// one JSON object as its last line of standard output: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1.
//
//	bash perfbench/run.sh --workload exhaust-l1 --seed 1 --seconds 18 --trace 0
//
// See NOTES.md for the workloads, the metrics and how to cite a ledger diff.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"symriscv/internal/obs"
)

// defaultSeed seeds hunt-rand's random-path searcher when --seed is absent.
// The other workloads explore in depth-first order and ignore the seed.
const defaultSeed = 1

// minPasses is the fewest timed passes a run makes, however short
// --seconds is, so every median has a middle.
const minPasses = 3

// setupProbes is how many set-up probes a run makes for setup_s.
const setupProbes = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// A run starts child processes of itself: one per timed pass and one
	// per set-up probe (see measureEndToEnd). These flags address them.
	child  string // "", "pass" or "probe"
	rundir string
	index  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exhaust-l1, deep-l2-pipe, hunt-rand or store-w2")
	var o options
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of hunt-rand's random-path searcher")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from traced passes")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for stores")
	fs.StringVar(&o.child, "child", "", "internal: run as a pass or probe process")
	fs.StringVar(&o.rundir, "rundir", "", "internal: the parent run's scratch directory")
	fs.IntVar(&o.index, "index", 0, "internal: pass or probe index")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, o.seconds, *trace)
		return 2
	}
	o.workload, o.trace = w, *trace == 1

	var out any
	var err error
	switch o.child {
	case "pass":
		out, err = childPass(o, stderr)
	case "probe":
		out, err = childProbe(o)
	case "":
		out, err = parent(o, stderr)
	default:
		err = fmt.Errorf("unknown -child %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runner runs one workload and keeps the operation accounting.
type runner struct {
	w   workload
	b   *bench
	log io.Writer

	attempted, failed int
	witnesses         witnessLog // replayed outside every timed pass
}

func (r *runner) fail(label string, err error) {
	r.failed++
	fmt.Fprintf(r.log, "perfbench: %s: %s: %v\n", r.w.name, label, err)
}

// check gates every op of the index-th pass and replays its witnesses.
func (r *runner) check(index int, p pass) {
	for i, o := range p.ops {
		r.attempted++
		err := r.w.gate(r.b, index, i, o)
		if err == nil && o.out.Stats.SolverUnknowns > 0 {
			err = fmt.Errorf("%d solver-unknown aborts", o.out.Stats.SolverUnknowns)
		}
		if err == nil {
			err = r.witnesses.replay(i, o)
		}
		if err != nil {
			r.fail(o.label, err)
		}
	}
}

// reference prepares the workload and runs it once through the harness
// API; its outcomes are what every timed pass must reproduce.
func (r *runner) reference() error {
	if r.w.prepare != nil {
		if err := r.w.prepare(r.b); err != nil {
			return fmt.Errorf("%s: prepare: %w", r.w.name, err)
		}
	}
	t0 := time.Now()
	ops, errs := r.w.reference(r.b)
	fmt.Fprintf(r.log, "perfbench: %s: reference %.2fs\n", r.w.name, time.Since(t0).Seconds())
	for i, err := range errs {
		r.attempted++
		if err == nil && i < len(ops) && r.w.sharesWitnesses() {
			err = r.witnesses.replay(i, ops[i])
		}
		if err != nil {
			r.fail("reference", err)
		}
	}
	return nil
}

func (r *runner) pass(index int, rec *obs.Recorder) (pass, error) {
	p, err := r.w.run(r.b, index, rec)
	if err != nil {
		return pass{}, fmt.Errorf("%s: %w", r.w.name, err)
	}
	r.check(index, p)
	return p, nil
}

func (r *runner) result(values map[string]float64, defs []metricDef) result {
	fmt.Fprintf(r.log, "perfbench: %s: %d witnesses replayed in %.2fs\n", r.w.name, r.witnesses.count, r.witnesses.time.Seconds())
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

func parent(o options, log io.Writer) (result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := &runner{w: o.workload, b: &bench{Seed: o.seed, Dir: dir}, log: log}
	if err := r.reference(); err != nil {
		return result{}, err
	}
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		values, err := r.measureLayers(budget)
		return r.result(values, perLayer), err
	}
	values, err := r.measureEndToEnd(o, budget)
	return r.result(values, endToEnd), err
}

// passReport is what a pass process hands back to the run.
type passReport struct {
	Attempted, Failed int
	Paths             int
	CPU               time.Duration // summed over the pass's explorations
	Wall              time.Duration // of the whole pass
	PeakRSSMB         float64       // mean over the pass's explorations
}

// measureEndToEnd runs each timed pass, untraced, in a fresh process and
// reports each metric's median over the passes. On a shared virtual
// machine a process's speed depends on where its memory lands, so a run
// that kept one process would measure one placement; a process per pass
// samples several. Timings are process CPU time: hypervisor steal
// stretches wall time by a varying share, while CPU time counts only the
// work the program did. Set-up is measured the same way, in setupProbes
// fresh processes of its own.
func (r *runner) measureEndToEnd(o options, budget time.Duration) (map[string]float64, error) {
	if err := writeJSON(filepath.Join(r.b.Dir, "bench.json"), r.b); err != nil {
		return nil, err
	}
	var setup []float64
	for i := 0; i < setupProbes; i++ {
		if r.w.prepareProbe != nil {
			if err := r.w.prepareProbe(r.b, i); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if err := r.child(o, "probe", i, &d); err != nil {
			return nil, fmt.Errorf("%s: set-up probe: %w", r.w.name, err)
		}
		setup = append(setup, d.Seconds())
	}
	var pathsPerCPU, cpu, rss []float64
	t0 := time.Now()
	for n := 0; n < minPasses || time.Since(t0) < budget; n++ {
		var p passReport
		if err := r.child(o, "pass", n, &p); err != nil {
			r.attempted++
			r.fail(fmt.Sprintf("pass %d", n), err)
			continue
		}
		r.attempted += p.Attempted
		r.failed += p.Failed
		fmt.Fprintf(r.log, "perfbench: %s: pass %d: %d paths, cpu %.3fs, wall %.3fs, rss %.1fMB\n", r.w.name, n, p.Paths, p.CPU.Seconds(), p.Wall.Seconds(), p.PeakRSSMB)
		pathsPerCPU = append(pathsPerCPU, float64(p.Paths)/p.CPU.Seconds())
		cpu = append(cpu, p.CPU.Seconds())
		rss = append(rss, p.PeakRSSMB)
	}
	return map[string]float64{
		"paths_per_cpu_s":   median(pathsPerCPU),
		"time_to_bug_cpu_s": median(cpu),
		"setup_s":           median(setup),
		"peak_rss_mb":       median(rss),
	}, nil
}

// child runs one pass or probe process of this run and decodes the JSON
// of its last output line into out.
func (r *runner) child(o options, kind string, index int, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", r.w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-rundir", r.b.Dir, "-index", strconv.Itoa(index))
	cmd.Stderr = r.log
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s %d: %w", kind, index, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	return json.Unmarshal(lines[len(lines)-1], out)
}

// childPass runs the index-th timed pass against the run's reference.
func childPass(o options, log io.Writer) (passReport, error) {
	var b bench
	if err := readJSON(filepath.Join(o.rundir, "bench.json"), &b); err != nil {
		return passReport{}, err
	}
	r := &runner{w: o.workload, b: &b, log: log}
	if r.w.sharesWitnesses() {
		for i, out := range b.Ref {
			r.witnesses.trust(i, out) // replayed by the parent
		}
	}
	p, err := r.pass(o.index, nil)
	if err != nil {
		return passReport{}, err
	}
	rep := passReport{Attempted: r.attempted, Failed: r.failed, Wall: p.wall}
	for _, op := range p.ops {
		rep.Paths += op.out.Stats.Paths
		rep.CPU += op.cpu
		rep.PeakRSSMB += op.rss / float64(len(p.ops))
	}
	return rep, nil
}

// childProbe measures one set-up in this fresh process: the process CPU
// time from its start, through Go runtime and package initialisation, to
// the workload's first path.
func childProbe(o options) (time.Duration, error) {
	b := &bench{Seed: o.seed, Dir: o.rundir}
	return o.workload.probe(b, o.index)
}

// measureLayers alternates an untraced and a traced pass, in this process,
// until the budget is spent. The pair must agree on every deterministic
// counter (tracing is a side channel), and the traced pass's phase self
// times must add up to its top-level spans. Each metric is the median over
// the pairs.
func (r *runner) measureLayers(budget time.Duration) (map[string]float64, error) {
	samples := make(map[string][]float64)
	t0 := time.Now()
	for n := 0; n < 1 || time.Since(t0) < budget; n++ {
		u, err := r.pass(n, nil)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		rec := obs.New(obs.Options{Trace: &buf, Label: "perfbench " + r.w.name})
		t, err := r.pass(n, rec)
		if err != nil {
			return nil, err
		}
		if err := rec.Close(); err != nil {
			return nil, fmt.Errorf("close trace: %w", err)
		}
		l, err := parseTrace(&buf)
		if err != nil {
			return nil, err
		}
		for i := range t.ops {
			if err := sameOutcome(u.ops[i].out, t.ops[i].out, r.w.workers == 1); err != nil {
				r.fail(t.ops[i].label, fmt.Errorf("traced pass differs from untraced: %w", err))
			}
		}
		if err := l.checkSum(); err != nil {
			r.fail("trace", err)
		}
		for k, v := range layerSample(u, t, l, r.w.workers, r.w.hunts) {
			samples[k] = append(samples[k], v)
		}
	}
	values := make(map[string]float64, len(samples))
	for k, vs := range samples {
		values[k] = median(vs)
	}
	return values, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
