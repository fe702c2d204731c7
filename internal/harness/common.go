package harness

import (
	"strings"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/obs"
	"symriscv/internal/parexplore"
	"symriscv/internal/qstore"
)

// Toggle is a tri-state ablation switch as it appears on the command line:
// the zero value and "on" leave the feature enabled, "off" disables it.
// Toggles exist to measure what a layer buys — reports are identical on and
// off by construction (see internal/querycache).
type Toggle string

// Toggle states.
const (
	On  Toggle = "on"
	Off Toggle = "off"
)

// Disabled reports whether the toggle turns its feature off.
func (t Toggle) Disabled() bool { return t == Off }

// ParseToggle maps a flag value to a Toggle; ok is false for anything other
// than "", "on" or "off" (case-insensitive).
func ParseToggle(v string) (Toggle, bool) {
	switch strings.ToLower(v) {
	case "", "on":
		return On, true
	case "off":
		return Off, true
	}
	return "", false
}

// Common is the option set shared by every harness campaign. Per-command
// option structs embed it, so the symv flag group (-workers, -cache,
// -trace, -metrics) maps onto one place regardless of command.
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
	// Cache toggles the query-elimination layer (stack models, independence
	// slicing, feasibility caching).
	Cache Toggle
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
	// Budget bounds each exploration's wall time when the command does not
	// override it with a more specific budget (PerProbeTime, PerCellTime...).
	// 0 means unbounded for every campaign — commands that want a default
	// budget declare it on their flag, never by reinterpreting the zero
	// value (LongRun used to silently turn 0 into 30s; it no longer does).
	Budget time.Duration
	// MaxPaths bounds each exploration's path count (0 = unbounded unless
	// the command sets its own default).
	MaxPaths int
}

// apply copies the shared options onto one exploration's core options.
// Command-specific settings win: already-set bounds are kept, and the
// ablation toggles only ever disable (they never re-enable a layer an
// explicit option turned off).
func (c Common) apply(o core.Options) core.Options {
	o.NoQueryCache = o.NoQueryCache || c.Cache.Disabled()
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

// explore runs one exploration under the shared options, checkpointing the
// persistent store (when one is attached) at the exploration boundary.
func (c Common) explore(run core.RunFunc, o core.Options) *core.Report {
	rep := exploreWorkers(run, c.apply(o), c.Workers)
	c.Store.Checkpoint()
	return rep
}

// exploreWorkers routes one exploration to the sequential explorer
// (workers <= 1) or to the sharded parallel orchestrator. For the same
// options both explore the same paths and report the same counts, path
// indices and finding classes — parexplore's canonical merge numbers paths
// in sequential depth-first order — but witness and test-vector values are
// solver models and can differ with the worker count.
func exploreWorkers(run core.RunFunc, opts core.Options, workers int) *core.Report {
	if workers > 1 {
		return parexplore.Explore(run, opts, workers)
	}
	return core.NewExplorer(run).Explore(opts)
}

// ExploreOptions configure one direct exploration (symv hunt / replay).
type ExploreOptions struct {
	Common
	// Opts carries the exploration-specific options; the shared toggles,
	// budgets and observability sink are layered on top by Common.
	Opts core.Options
}

// ExploreWith runs one exploration under a single options struct.
func ExploreWith(run core.RunFunc, o ExploreOptions) *core.Report {
	return o.explore(run, o.Opts)
}
