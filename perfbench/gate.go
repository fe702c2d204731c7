package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"symriscv/internal/cosim"
	"symriscv/internal/harness"
	"symriscv/internal/rvfi"
)

// sameOutcome reports the first difference between two explorations of the
// same tree. It always compares the report contract: the path counts, the
// instruction and query totals, and every finding by path and mismatch
// class. With exact set it also compares the work counters and each
// finding's full error, witness values included; those repeat bit for bit
// at workers=1 but depend on scheduling (and on store state) at workers>1.
func sameOutcome(want, got outcome, exact bool) error {
	a, b := want.Stats, got.Stats
	if want.Exhausted != got.Exhausted {
		return fmt.Errorf("exhausted %v, want %v", got.Exhausted, want.Exhausted)
	}
	type field struct {
		name string
		a, b uint64
	}
	fs := []field{
		{"paths", uint64(a.Paths), uint64(b.Paths)},
		{"completed", uint64(a.Completed), uint64(b.Completed)},
		{"partial", uint64(a.Partial), uint64(b.Partial)},
		{"infeasible", uint64(a.Infeasible), uint64(b.Infeasible)},
		{"instructions", a.Instructions, b.Instructions},
		{"cycles", a.Cycles, b.Cycles},
		{"branches", a.Branches, b.Branches},
		{"concretizations", a.Concretizations, b.Concretizations},
		{"queries", a.SolverQueries, b.SolverQueries},
		{"test vectors", uint64(want.Vectors), uint64(got.Vectors)},
		{"findings", uint64(len(want.Findings)), uint64(len(got.Findings))},
	}
	if exact {
		fs = append(fs,
			field{"terms", uint64(a.TermCount), uint64(b.TermCount)},
			field{"sat vars", uint64(a.SATVars), uint64(b.SATVars)},
			field{"cdcl", a.CDCLQueries, b.CDCLQueries},
			field{"unknowns", a.SolverUnknowns, b.SolverUnknowns},
			field{"rewrite hits", a.RewriteHits, b.RewriteHits},
			field{"fork snapshots", a.ForkSnapshots, b.ForkSnapshots},
			field{"fork resumes", a.ForkResumes, b.ForkResumes},
			field{"events saved", a.ReplayEventsSaved, b.ReplayEventsSaved},
		)
	}
	for _, f := range fs {
		if f.a != f.b {
			return fmt.Errorf("%s %d, want %d", f.name, f.b, f.a)
		}
	}
	if exact {
		if a.Cache != b.Cache {
			return fmt.Errorf("query-cache counters %+v, want %+v", b.Cache, a.Cache)
		}
		if a.SAT != b.SAT {
			return fmt.Errorf("SAT counters %+v, want %+v", b.SAT, a.SAT)
		}
	}
	for i := range want.Findings {
		fw, fg := want.Findings[i], got.Findings[i]
		kw, kg := fw.Class, fg.Class
		if exact {
			kw, kg = fw.Err, fg.Err
		}
		if fw.Path != fg.Path || kw != kg {
			return fmt.Errorf("finding %d: path %d %q, want path %d %q", i, fg.Path, kg, fw.Path, kw)
		}
	}
	return nil
}

// findingClass is a finding's witness-independent key: the Table I row
// class of a checker mismatch, the error text otherwise.
func findingClass(cfg cosim.Config, err error) string {
	var m *rvfi.Mismatch
	if errors.As(err, &m) {
		return harness.ClassifyFor(cfg.DUTCore, m).Key()
	}
	return err.Error()
}

// replayWitness re-executes a finding with every input pinned to its
// witness (cosim.Config.Pin) and requires the same mismatch.
func replayWitness(cfg cosim.Config, f finding) error {
	m, err := cosim.Replay(cfg, f.Inputs)
	if err != nil {
		return fmt.Errorf("path %d: replay: %v", f.Path, err)
	}
	if m == nil {
		return fmt.Errorf("path %d: witness does not reproduce %q", f.Path, f.Err)
	}
	if m.Error() != f.Err {
		return fmt.Errorf("path %d: witness reproduces %q, want %q", f.Path, m, f.Err)
	}
	return nil
}

// witnessLog replays witnesses, each distinct one once: at workers=1 a
// pass reproduces the reference's witnesses bit for bit, so only the
// reference's are replayed.
type witnessLog struct {
	seen  map[string]bool // op position, path, error and inputs
	count int
	time  time.Duration
}

func witnessKey(pos int, f finding) string {
	return fmt.Sprintf("%d/%d/%s/%v", pos, f.Path, f.Err, f.Inputs)
}

// trust records the witnesses of out, the op at position pos, as replayed
// by another process.
func (w *witnessLog) trust(pos int, out outcome) {
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	for _, f := range out.Findings {
		w.seen[witnessKey(pos, f)] = true
	}
}

// replay replays the witnesses of o, the op at position pos of its pass,
// that have not been replayed yet. Replays are independent explorations
// and run on every CPU; the first failure in report order is returned.
func (w *witnessLog) replay(pos int, o op) error {
	t0 := time.Now()
	defer func() { w.time += time.Since(t0) }()
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	var todo []finding
	var keys []string
	for _, f := range o.out.Findings {
		if k := witnessKey(pos, f); !w.seen[k] {
			todo = append(todo, f)
			keys = append(keys, k)
		}
	}
	w.count += len(todo)
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(todo); i = int(next.Add(1)) - 1 {
				errs[i] = replayWitness(o.cfg, todo[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return err
		}
		w.seen[keys[i]] = true
	}
	return nil
}
