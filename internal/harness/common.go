package harness

import (
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/obs"
	"symriscv/internal/parexplore"
	"symriscv/internal/qstore"
)

// Common is the option set shared by every harness campaign. Per-command
// option structs embed it, so the symv flag group (-core, -workers, -cache,
// -store, -trace, -metrics) and the per-exploration budgets map onto one
// place regardless of command.
type Common struct {
	// Workers shards each exploration's path tree across this many solver
	// contexts (see internal/parexplore); <= 1 explores sequentially.
	// Paths, counts, path indices and finding classes are worker-count
	// independent by construction; witness values are not.
	Workers int
	// Core selects the device under test for campaigns that support more
	// than one ("" = the campaign's default, microrv32). It is the single
	// core selector shared by every command (-core on the CLI).
	Core cosim.CoreKind
	// NoCache disables the query-elimination layer (stack models,
	// independence slicing, feasibility caching; symv -cache off). It exists
	// to measure what the layer buys: paths, counts, path indices and
	// finding classes are identical with and without it by construction
	// (see internal/querycache).
	NoCache bool
	// Obs, when non-nil, attaches every exploration to the observability
	// layer (spans, counters, JSONL traces). Strictly a side channel:
	// reports are byte-identical with and without it.
	Obs *obs.Recorder
	// Store, when non-nil, is the persistent cross-campaign witness store
	// session (symv -store DIR): every exploration attaches to its shared
	// cache, and new entries are checkpointed to disk after each exploration
	// — the same hand-off boundary where workers flush into the shared
	// cache. Like Obs it is strictly a side channel: reports are
	// byte-identical with and without it, warm or cold.
	Store *qstore.Session
	// Budget bounds each exploration's wall time, and MaxPaths its path
	// count. 0 means unbounded, unless the campaign's options document a
	// default of their own (Table I, Table II, the baseline, the ablations).
	Budget   time.Duration
	MaxPaths int
}

// apply copies the shared options onto one exploration's core options.
// Command-specific settings win: already-set bounds are kept, and the
// ablation toggles only ever disable (they never re-enable a layer an
// explicit option turned off).
func (c Common) apply(o core.Options) core.Options {
	o.NoQueryCache = o.NoQueryCache || c.NoCache
	if o.Obs == nil {
		o.Obs = c.Obs
	}
	if o.MaxTime == 0 {
		o.MaxTime = c.Budget
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = c.MaxPaths
	}
	if o.SharedCache == nil && c.Store != nil {
		o.SharedCache = c.Store.Shared()
	}
	return o
}

// Explore runs one exploration under the shared options layered onto o,
// on the sequential explorer (Workers <= 1) or the sharded parallel
// orchestrator, and checkpoints the persistent store (when one is attached)
// at the exploration boundary. For the same options both drivers explore
// the same paths and report the same counts, path indices and finding
// classes — parexplore's canonical merge numbers paths in sequential
// depth-first order — but witness and test-vector values are solver models
// and can differ with the worker count.
func (c Common) Explore(run core.RunFunc, o core.Options) *core.Report {
	o = c.apply(o)
	var rep *core.Report
	if c.Workers > 1 {
		rep = parexplore.Explore(run, o, c.Workers)
	} else {
		rep = core.NewExplorer(run).Explore(o)
	}
	c.Store.Checkpoint()
	return rep
}
