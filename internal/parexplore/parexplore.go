// Package parexplore shards one symbolic exploration's decision tree across
// worker goroutines, each owning a private term context, solver and model
// pair (a core.Explorer made by core.NewShard). The deterministic kernel
// stays goroutine-free — all concurrency lives here, above it, as the symlint
// determinism analyzer mandates.
//
// # Why sharding is cheap
//
// Replay-based forking makes a path a self-contained decision prefix, so the
// hand-off unit between workers is just a []core.Step — no engine or solver
// state is cloned or shared. Deterministic symbolic-variable naming means
// every worker independently rebuilds identical terms, so per-worker
// hash-consing and CNF caches stay hot with zero cross-worker traffic.
//
// # Why the result is deterministic
//
// Every explored path carries a canonical signature (core.Sig) whose
// lexicographic order equals sequential depth-first discovery order and is
// independent of which worker explored the path. The merge sorts all path
// records by signature and applies every budget as a canonical cut over that
// order: StopOnFirstFinding keeps everything up to the minimum-signature
// finding, and MaxPaths keeps the MaxPaths smallest signatures. Workers
// prune scheduled work ordered after the current cut bound; because the
// bound only ever shrinks toward its final value, nothing ordered at or
// before the final cut is ever pruned, so the kept set — findings, test
// vectors, path numbering and all statistic totals — is bit-for-bit
// independent of scheduling and worker count. (Only MaxTime expiry is
// inherently wall-clock dependent; runs that exhaust the tree or stop on
// another budget are exactly reproducible.)
//
// Witness and test-vector values are solver models and may vary with a
// worker's query history; their satisfying property, count and canonical
// numbering are deterministic, the concrete values are any-model.
package parexplore

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/obs"
	"symriscv/internal/querycache"
)

// unit is one subtree hand-off: a portable decision prefix plus its
// canonical signature.
type unit struct {
	prefix []core.Step
	sig    core.Sig
}

// queue distributes subtree roots among workers. It closes itself when every
// participant is blocked waiting and no items remain — the frontier of the
// whole exploration has drained.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []unit
	waiting int
	workers int
	closed  bool
}

func newQueue(workers int) *queue {
	q := &queue{workers: workers}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) put(u unit) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, u)
	q.cond.Signal()
}

// get blocks until a unit is available or the exploration is over.
func (q *queue) get() (unit, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.items) > 0 {
			u := q.items[0]
			q.items = q.items[1:]
			return u, true
		}
		if q.closed {
			return unit{}, false
		}
		if q.waiting+1 == q.workers {
			// Everyone else is already waiting: the tree is explored.
			q.closed = true
			q.cond.Broadcast()
			return unit{}, false
		}
		q.waiting++
		q.cond.Wait()
		q.waiting--
	}
}

// hungry reports whether some worker is starved — the donation signal.
func (q *queue) hungry() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiting > 0 && len(q.items) == 0
}

// stop shuts the queue down early (budget expiry).
func (q *queue) stop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// coord accumulates path records from all workers and maintains the shrinking
// canonical cut bound the workers prune against.
type coord struct {
	mu    sync.Mutex
	opts  core.Options
	start time.Time

	records []core.PathRecord
	ordered []int       // record indices sorted by Sig (when MaxPaths is set)
	running core.Report // records in arrival order, for Progress snapshots

	hasStop    bool
	minStop    core.Sig
	hasFinding bool
	minFinding core.Sig

	curBound core.Sig
	hasBound bool
	stopped  bool // MaxTime expired mid-run
}

// shouldStop reports whether the wall-clock budget has expired.
func (c *coord) shouldStop() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return true
	}
	if c.opts.MaxTime > 0 && time.Since(c.start) >= c.opts.MaxTime {
		c.stopped = true
		return true
	}
	return false
}

// bound returns the current canonical cut bound.
func (c *coord) bound() (core.Sig, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBound, c.hasBound
}

// record registers one explored path and refreshes the cut bound.
func (c *coord) record(rec core.PathRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()

	idx := len(c.records)
	c.records = append(c.records, rec)
	if c.opts.MaxPaths > 0 {
		i := sort.Search(len(c.ordered), func(k int) bool {
			return c.records[c.ordered[k]].Sig > rec.Sig
		})
		c.ordered = append(c.ordered, 0)
		copy(c.ordered[i+1:], c.ordered[i:])
		c.ordered[i] = idx
	}
	if rec.Kind == core.PathStopped && (!c.hasStop || rec.Sig < c.minStop) {
		c.hasStop, c.minStop = true, rec.Sig
	}
	if c.opts.StopOnFirstFinding && rec.Kind == core.PathFinding &&
		(!c.hasFinding || rec.Sig < c.minFinding) {
		c.hasFinding, c.minFinding = true, rec.Sig
	}
	c.refreshBound()

	if c.opts.Progress == nil {
		return
	}
	c.running.Add(rec)
	if c.running.Stats.Paths%core.ProgressEvery == 0 {
		snap := c.running.Stats
		snap.Elapsed = time.Since(c.start)
		c.opts.Progress(snap)
	}
}

// refreshBound recomputes the cut bound from every active source. Each
// source's bound is non-increasing as records accumulate, so pruning against
// it never discards a path ordered at or before the final cut.
func (c *coord) refreshBound() {
	var b core.Sig
	has := false
	apply := func(s core.Sig) {
		if !has || s < b {
			b, has = s, true
		}
	}
	if c.hasStop {
		apply(c.minStop)
	}
	if c.hasFinding {
		apply(c.minFinding)
	}
	if c.opts.MaxPaths > 0 && len(c.ordered) >= c.opts.MaxPaths {
		apply(c.records[c.ordered[c.opts.MaxPaths-1]].Sig)
	}
	c.curBound, c.hasBound = b, has
}

// merge sorts all records canonically, applies every budget as a cut over
// that order, and builds the report.
func (c *coord) merge(shards []*core.Explorer) *core.Report {
	c.mu.Lock()
	defer c.mu.Unlock()

	recs := c.records
	sort.Slice(recs, func(i, j int) bool { return recs[i].Sig < recs[j].Sig })

	cut := len(recs)
	minStopIdx, minFindIdx := -1, -1
	for i, r := range recs {
		if r.Kind == core.PathStopped && minStopIdx < 0 {
			minStopIdx = i
		}
		if r.Kind == core.PathFinding && minFindIdx < 0 {
			minFindIdx = i
		}
	}
	if minStopIdx >= 0 && minStopIdx+1 < cut {
		cut = minStopIdx + 1
	}
	if c.opts.StopOnFirstFinding && minFindIdx >= 0 && minFindIdx+1 < cut {
		cut = minFindIdx + 1
	}
	if c.opts.MaxPaths > 0 && c.opts.MaxPaths < cut {
		cut = c.opts.MaxPaths
	}

	rep := &core.Report{}
	for _, r := range recs[:cut] {
		rep.Add(r)
	}

	pruned := false
	for _, sh := range shards {
		pruned = pruned || sh.Pruned()
		// Telemetry (cache- and scheduling-dependent, excluded from the
		// deterministic report contract): summed over all workers, including
		// work beyond the canonical cut.
		sh.Finish(&rep.Stats)
	}

	// Exhausted mirrors the sequential explorer: false whenever a budget,
	// stop return or finding return ended the exploration before the
	// frontier drained on its own.
	earlyReturn := (minStopIdx >= 0 && minStopIdx < cut) ||
		(c.opts.StopOnFirstFinding && minFindIdx >= 0 && minFindIdx < cut)
	rep.Exhausted = !c.stopped && !pruned && cut == len(recs) && !earlyReturn
	rep.Stats.Elapsed = time.Since(c.start)
	return rep
}

// seedTarget is the frontier width the breadth-first seed phase aims for
// before splitting work across the queue.
func seedTarget(workers int) int {
	t := 4 * workers
	if t < 32 {
		t = 32
	}
	return t
}

// Explore runs the program over the whole feasible path tree like
// core.Explorer.Explore, sharded across the given number of worker
// goroutines (default GOMAXPROCS when workers <= 0). Budgets are applied as
// canonical cuts (see the package comment), so the explored paths, the
// statistic counts, the path indices and the finding classes are the same
// for every worker count, and with the depth-first strategy they match the
// sequential explorer path for path. Witness and test-vector values are
// solver models and can differ between worker counts.
func Explore(run core.RunFunc, opts core.Options, workers int) *core.Report {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	c := &coord{opts: opts, start: start}

	// The orchestrator's handle (worker 0) owns the explore root span;
	// shard handles (workers 1..N) stitch their path spans under it.
	oh := opts.Obs.NewHandle(0)
	root := oh.Start(obs.PhaseExplore)

	// One read-mostly cache store spans all workers; each shard buffers its
	// new entries locally and publishes them at hand-off points, so cache
	// traffic never serialises the hot path. A caller-provided store
	// (opts.SharedCache, e.g. the persistent qstore session's) is reused so
	// entries survive beyond this exploration.
	shardOpts := opts
	if shardOpts.SharedCache == nil && !opts.NoQueryCache {
		shardOpts.SharedCache = querycache.NewShared()
	}
	shards := make([]*core.Explorer, workers)
	for i := range shards {
		so := shardOpts
		so.Seed = opts.Seed + int64(i)
		shards[i] = core.NewShard(run, so, i+1)
		shards[i].ObsHandle().SetBase(root)
	}

	// Seed phase: worker 0's shard explores breadth-first until the frontier
	// is wide enough to split (or the tree, a budget or a bound ends it),
	// then every frontier node is exported to the shared queue.
	seed := shards[0]
	seed.SeedRoot()
	for seed.Pending() > 0 && seed.Pending() < seedTarget(workers) {
		if c.shouldStop() {
			break
		}
		if b, ok := c.bound(); ok {
			seed.SetBound(b)
		}
		rec, ok := seed.Step(core.SearchBFS)
		if !ok {
			break
		}
		c.record(rec)
	}
	q := newQueue(workers)
	for {
		prefix, sig, ok := seed.Handoff()
		if !ok {
			break
		}
		q.put(unit{prefix: prefix, sig: sig})
	}
	// Publish the seed phase's cache entries before workers start, so every
	// worker begins with the shared decode-prefix answers.
	seed.Flush()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int, sh *core.Explorer) {
			defer wg.Done()
			// pprof labels attribute CPU samples per worker and phase.
			obs.LabelWorker(opts.Obs, i+1, obs.PhaseExplore, func() {
				workerLoop(sh, q, c, opts.Search)
			})
		}(i, shards[i])
	}
	wg.Wait()

	rep := c.merge(shards)
	core.PublishExploreObs(oh, rep.Stats)
	root.End()
	oh.Flush()
	return rep
}

// workerLoop pulls subtree roots off the queue and explores them, donating
// frontier nodes whenever another worker is starved.
func workerLoop(sh *core.Explorer, q *queue, c *coord, search core.SearchStrategy) {
	for {
		u, ok := q.get()
		if !ok {
			return
		}
		sh.AddPrefix(u.prefix, u.sig)
		for sh.Pending() > 0 {
			if c.shouldStop() {
				q.stop()
				return
			}
			if b, ok := c.bound(); ok {
				sh.SetBound(b)
			}
			rec, ok := sh.Step(search)
			if !ok {
				break // frontier drained or fully pruned
			}
			c.record(rec)
			if sh.Pending() > 1 && q.hungry() {
				if prefix, sig, ok := sh.Handoff(); ok {
					// The donated subtree's cached answers travel with it;
					// counter/phase shards merge at the same hand-off point.
					sh.Flush()
					q.put(unit{prefix: prefix, sig: sig})
				}
			}
		}
		// Subtree done: publish its cache entries and counter shards before
		// going idle.
		sh.Flush()
	}
}
