// Package querycache is the query-elimination layer between the symbolic
// execution engine (internal/core) and the QF_BV solver (internal/solver).
// It answers as many path-feasibility queries as possible without touching
// the SAT core, using per-path model stacking plus two classic KLEE
// techniques, constraint independence and counterexample caching:
//
//  1. Stack caching: every satisfying assignment discovered on the current
//     path is kept (and eagerly revalidated as constraints are added, via
//     smt.Eval); a branch condition that evaluates to true under a stacked
//     model is satisfiable together with the whole constraint set, with no
//     solver work at all. Sibling scheduling seeds the stack of the child
//     path with the model that proved the sibling feasible.
//
//  2. Constraint independence: the constraint set is partitioned into
//     connected components of the "shares a variable" relation, and only the
//     components connected to the queried condition are sent to the solver.
//     Because the engine maintains the invariant that the path constraints
//     are always satisfiable, and distinct components share no variables,
//     the sliced answer equals the full answer. Observe grows a union-find
//     over the path's variables, so a probe only finds the pivot's roots.
//
//  3. Counterexample caching: answers are cached under a canonical
//     fingerprint of the sliced constraint set (sorted context-independent
//     structural hashes, so entries are valid across solver contexts and
//     parexplore workers), kept sorted by Observe. An exact fingerprint
//     match returns the cached answer; a superset of a known-unsat set is
//     unsat. Unsat answers are recorded as the solver's unsat core when it
//     is smaller than the slice, so the superset rule covers every later
//     query containing the core. Unsat entries are indexed under each of
//     their hashes; a probe tests only its pivot's bucket.
//
// Determinism: the layer never changes a Sat/Unsat answer — hits are either
// witnessed by a concrete model (checked with smt.Eval, the ground truth) or
// follow from the sound slicing and superset arguments above. Model-bearing
// queries (concretization, witness extraction, test vectors) always pass
// through to the solver unsliced so the values the engine reads never depend
// on cache state. The one observable difference is under a finite solver
// conflict budget: a cache hit can answer a query whose fresh CDCL run would
// have been abandoned as Unknown. Unknown answers are never cached.
//
// A Local is single-goroutine (one per core.Shard); a Shared is the
// read-mostly cross-worker store, written in batches at handoff points.
package querycache

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"symriscv/internal/obs"
	"symriscv/internal/smt"
	"symriscv/internal/solver"
)

// SchemaVersion identifies the semantics of cache entries — what a
// fingerprint hashes, and the restricted-and-total model invariant sat
// entries carry. Any change to either MUST bump it: the persistent store
// (internal/qstore) folds it into every segment's version key, which is how
// entries written under old semantics are prevented from answering queries
// under new ones. Version 2 is the post-review contract: models restricted
// to — and total over — their slice's support, with explicit zeros.
const SchemaVersion = 2

// Model is a concrete variable assignment by name. Variables absent from the
// map read as zero, matching the solver's treatment of unconstrained
// variables, so a Model is a total assignment and evaluation under it never
// fails.
type Model map[string]uint64

// Lookup implements smt.Env with a zero default.
func (m Model) Lookup(name string, _ int) (uint64, bool) { return m[name], true }

// Stats counts pipeline outcomes. Queries is the number of feasibility
// queries entering the pipeline; CDCL is how many of them reached the SAT
// core; the difference is the hit counters, so Queries = Eliminated() + CDCL
// always reconciles. ModelQueries counts the model-bearing solver calls that
// always pass through (CheckModel, and CheckWitness's full-witness
// re-derivation after a partial-model cache answer); those calls appear only
// here, never in Queries or CDCL. On the re-derivation path one engine query
// is counted once in Queries (the pipeline run that produced the partial
// answer) and once in ModelQueries (the pass-through that recovers the full
// witness) — the total solver work is CDCL + ModelQueries.
type Stats struct {
	Queries   uint64 // feasibility queries entering the pipeline
	StackHits uint64 // answered sat by a stacked path model
	ExactHits uint64 // answered by an exact fingerprint match
	// SubsetSat is always zero: subset-sat model revalidation was removed,
	// and sat entries answer exact fingerprint matches only. The field
	// stays because the benchmark module (perfbench/metrics.go,
	// perfbench/gate.go) still reads it; drop it together with perfbench's
	// qc.subset_sat metric in a declared benchmark change.
	SubsetSat     uint64
	SupersetUnsat uint64 // answered unsat as superset of a known-unsat set
	CDCL          uint64 // feasibility queries that reached the SAT core
	CDCLSat       uint64 // ... of which answered Sat
	CDCLUnsat     uint64 // ... of which answered Unsat
	ModelQueries  uint64 // model-bearing pass-through queries
	SlicedQueries uint64 // CDCL queries shrunk by independence slicing
	SlicedDropped uint64 // independent constraints dropped from CDCL queries
	// StoreHits counts the eliminated queries whose answering entry was
	// loaded from the persistent cross-campaign store (internal/qstore)
	// rather than created during this run. Always <= Eliminated(); purely
	// telemetry, like every counter that depends on cache state.
	StoreHits uint64
}

// Eliminated returns the number of feasibility queries answered without the
// SAT core.
func (s Stats) Eliminated() uint64 {
	return s.StackHits + s.ExactHits + s.SupersetUnsat
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.StackHits += o.StackHits
	s.ExactHits += o.ExactHits
	s.SupersetUnsat += o.SupersetUnsat
	s.CDCL += o.CDCL
	s.CDCLSat += o.CDCLSat
	s.CDCLUnsat += o.CDCLUnsat
	s.ModelQueries += o.ModelQueries
	s.SlicedQueries += o.SlicedQueries
	s.SlicedDropped += o.SlicedDropped
	s.StoreHits += o.StoreHits
}

// entry is one cached feasibility answer. The key is the canonical
// fingerprint of the constraint set the answer is for; hs is the sorted,
// deduplicated structural-hash multiset behind the key; model is a witness
// restricted to — and total over — the set's support variables, with
// explicit zeros for variables the solver left unconstrained (sat entries
// only). Totality is what lets mergeWithStack overlay the model onto a stack
// base without the base's values leaking into the validated assignment.
// Entries are immutable once created, which is what makes sharing them
// across workers race-free.
type entry struct {
	key   string
	hs    []uint64
	bloom uint64 // OR of 1<<(h&63) over hs; quick subset rejection
	sat   bool
	model Model
	store bool // loaded from the persistent store, not created this run
}

// sharedLimit bounds the cross-worker store (entries, not bytes).
const sharedLimit = 1 << 20

// Shared is the cross-worker cache store: a read-mostly map from canonical
// fingerprint to entry. Workers look entries up lock-cheaply (RLock) on
// every local miss and publish their locally created entries in batches at
// handoff points (Local.Flush). First writer wins; since any entry for a key
// is a sound answer for that key, the race on who publishes first never
// changes an answer.
type Shared struct {
	mu sync.RWMutex
	m  map[string]*entry
}

// NewShared returns an empty cross-worker store.
func NewShared() *Shared {
	return &Shared{m: make(map[string]*entry, 1024)}
}

// get returns the entry for key, or nil. Indexing with string(key) does not
// allocate.
func (s *Shared) get(key []byte) *entry {
	s.mu.RLock()
	e := s.m[string(key)]
	s.mu.RUnlock()
	return e
}

// put publishes a batch of entries, keeping the first entry per key.
func (s *Shared) put(batch []*entry) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	for _, e := range batch {
		if len(s.m) >= sharedLimit {
			break
		}
		if _, ok := s.m[e.key]; !ok {
			s.m[e.key] = e
		}
	}
	s.mu.Unlock()
}

// Len returns the number of stored entries (for telemetry).
func (s *Shared) Len() int {
	s.mu.RLock()
	n := len(s.m)
	s.mu.RUnlock()
	return n
}

// PortableEntry is the context-free, serialisable view of one cache entry:
// the sorted, deduplicated structural-hash fingerprint of the constraint
// set, the answer, and (sat entries only) the witnessing model restricted
// to — and total over — the set's support variables. It carries everything
// internal/qstore needs to persist an answer and everything Import needs to
// reconstruct it in another process.
type PortableEntry struct {
	Key    string // canonical key; always KeyOf(Hashes)
	Hashes []uint64
	Sat    bool
	Model  Model // nil for unsat entries
}

// KeyOf returns the canonical map key of a sorted, deduplicated hash set:
// each hash serialised big-endian, concatenated. It is the exported twin of
// Local.fingerprint's key construction.
func KeyOf(hs []uint64) string {
	buf := make([]byte, 8*len(hs))
	for i, h := range hs {
		binary.BigEndian.PutUint64(buf[i*8:], h)
	}
	return string(buf)
}

// Snapshot returns a portable copy of every stored entry, sorted by key so
// the output is deterministic for a given entry set. The hash slices and
// models alias the immutable entries and must be treated as read-only.
func (s *Shared) Snapshot() []PortableEntry {
	s.mu.RLock()
	keys := make([]string, len(s.m))
	i := 0
	for k := range s.m {
		keys[i] = k
		i++
	}
	sort.Strings(keys)
	out := make([]PortableEntry, 0, len(keys))
	for _, k := range keys {
		e := s.m[k]
		out = append(out, PortableEntry{Key: k, Hashes: e.hs, Sat: e.sat, Model: e.model})
	}
	s.mu.RUnlock()
	return out
}

// Import publishes externally loaded entries (the persistent store's load
// path), marking them store-originated so cache hits they answer can be
// attributed. Malformed entries (unsorted or duplicated hashes, empty sets,
// sat entries without a model) are rejected rather than trusted — the store
// layer's checksums catch corruption, this catches schema drift. First
// writer wins, as with put. Returns the number of entries accepted.
func (s *Shared) Import(es []PortableEntry) int {
	n := 0
	s.mu.Lock()
	for _, pe := range es {
		if !validPortable(pe) {
			continue
		}
		if len(s.m) >= sharedLimit {
			break
		}
		key := KeyOf(pe.Hashes)
		if _, ok := s.m[key]; ok {
			continue
		}
		hs := make([]uint64, len(pe.Hashes))
		copy(hs, pe.Hashes)
		s.m[key] = &entry{key: key, hs: hs, bloom: bloomOf(hs), sat: pe.Sat, model: pe.Model, store: true}
		n++
	}
	s.mu.Unlock()
	return n
}

// validPortable checks the structural invariants Import relies on.
func validPortable(pe PortableEntry) bool {
	if len(pe.Hashes) == 0 {
		return false
	}
	for i := 1; i < len(pe.Hashes); i++ {
		if pe.Hashes[i] <= pe.Hashes[i-1] {
			return false
		}
	}
	if pe.Sat && pe.Model == nil {
		return false
	}
	return true
}

// stackModel is one satisfying assignment of the current path's constraint
// set. seed marks the model inherited from the run that scheduled this path:
// it is known to satisfy every replayed constraint (program determinism), so
// revalidation is skipped during replay. ev is the model's persistent
// evaluator: path constraints share most of their term DAG, so keeping the
// evaluation cache alive across Observe calls costs each DAG node once per
// model per path instead of once per constraint.
type stackModel struct {
	env  Model
	ev   *smt.Evaluator
	seed bool
}

// maxStack bounds the per-path model stack.
const maxStack = 4

// Local is one worker's view of the query-elimination layer. It owns the
// per-path model stack, the per-term support memo, and a private entry map;
// misses fall back to the Shared store when attached. Per-term state lives in
// dense tables indexed by term ID-1, grown as the context interns new terms.
// Not safe for concurrent use.
type Local struct {
	ctx    *smt.Context
	sol    *solver.Solver
	shared *Shared

	entries map[string]*entry
	unsatBy map[uint64][]*entry // unsat entries under each member hash, in index order
	pending []*entry            // locally created entries not yet flushed

	support [][]uint32 // term ID-1 -> sorted support variable IDs; nil = not yet computed

	stack []stackModel     // models of the current path's constraint set
	free  []*smt.Evaluator // evaluators of dropped stack models, for reuse

	// The current path, kept by BeginPath and Observe.
	path   []*smt.Term  // observed constraints, in order
	byHash []hashedTerm // path's structural hashes, sorted
	parent []uint32     // key-1 -> union-find parent key; 0 = not on the path (see keysOf)
	count  []uint32     // root key-1 -> path constraints in its component
	onPath []uint32     // keys with a parent, cleared by BeginPath

	// Reusable per-query buffers (valid only within one pipeline call).
	scratch []*smt.Term // query assembly buffer (slices, pass-through sets)
	mark    []uint32    // term ID-1 -> epoch that marked it (slice roots, captureModel)
	epoch   uint32
	hsBuf   []uint64
	keyBuf  []byte
	idBuf   []uint32 // captureModel's support variables
	stats   Stats

	h *obs.Handle
}

// NewLocal returns a query-elimination layer over the given context and
// solver. shared may be nil (sequential exploration).
func NewLocal(ctx *smt.Context, sol *solver.Solver, shared *Shared) *Local {
	return &Local{
		ctx:     ctx,
		sol:     sol,
		shared:  shared,
		entries: make(map[string]*entry, 256),
		unsatBy: make(map[uint64][]*entry, 64),
	}
}

// hashedTerm is one path constraint's structural hash and union-find key.
type hashedTerm struct {
	h   uint64
	key uint32
}

// AttachShared connects the cross-worker store. Must be called before any
// queries.
func (l *Local) AttachShared(s *Shared) { l.shared = s }

// SetObs attaches the owning worker's observability handle; each pipeline
// probe then runs under a cache-probe span (with solver fall-throughs
// nesting their own solver-check spans inside it).
func (l *Local) SetObs(h *obs.Handle) { l.h = h }

// Stats returns the accumulated counters.
func (l *Local) Stats() Stats { return l.stats }

// BeginPath starts a new, empty path and resets the per-path model stack.
// seed, when non-nil, is a model known to satisfy the path's replayed
// constraint prefix (captured when the sibling was proven feasible).
func (l *Local) BeginPath(seed Model) {
	for _, m := range l.stack {
		l.free = append(l.free, m.ev)
	}
	l.stack = l.stack[:0]
	for _, v := range l.onPath {
		l.parent[v-1] = 0
	}
	l.onPath, l.path, l.byHash = l.onPath[:0], l.path[:0], l.byHash[:0]
	if seed != nil {
		l.stack = append(l.stack, stackModel{env: seed, ev: l.evaluator(seed), seed: true})
	}
}

// evaluator returns an evaluator over env, recycled from a dropped stack
// model when one is free.
func (l *Local) evaluator(env Model) *smt.Evaluator {
	n := len(l.free)
	if n == 0 {
		return smt.NewEvaluator(env)
	}
	ev := l.free[n-1]
	l.free = l.free[:n-1]
	ev.Reset(env)
	return ev
}

// Observe appends a constraint to the path. trusted marks replayed
// constraints, which the seed model is known to satisfy (program
// determinism); all other models are revalidated by evaluation and dropped
// when they no longer satisfy the constraint set. The constraint's hash joins
// the sorted path hashes and its variables join one union-find component.
func (l *Local) Observe(t *smt.Term, trusted bool) {
	l.path = append(l.path, t)
	h := l.ctx.StructuralHash(t)
	l.byHash = append(l.byHash, hashedTerm{})
	i := len(l.byHash) - 1
	for ; i > 0 && l.byHash[i-1].h > h; i-- {
		l.byHash[i] = l.byHash[i-1]
	}
	keys := l.keysOf(t)
	l.byHash[i] = hashedTerm{h, keys[0]}
	l.count[l.join(keys)-1]++

	keep := l.stack[:0]
	for _, m := range l.stack {
		if trusted && m.seed {
			keep = append(keep, m)
			continue
		}
		if v, err := m.ev.EvalBool(t); err == nil && v {
			keep = append(keep, m)
		} else {
			l.free = append(l.free, m.ev)
		}
	}
	l.stack = keep
}

// Flush publishes locally created cache entries to the Shared store. Called
// at work handoff points by the parallel orchestrator; a no-op without an
// attached store.
func (l *Local) Flush() {
	if l.shared != nil {
		l.shared.put(l.pending)
	}
	l.pending = l.pending[:0]
}

// CheckFeasible answers satisfiability of the path plus the optional query
// condition through the full elimination pipeline. A nil query makes the
// last observed constraint the pivot (the engine's flip check).
func (l *Local) CheckFeasible(query *smt.Term) solver.Result {
	res, _, _ := l.check(query, true)
	return res
}

// CheckSibling is CheckFeasible for the engine's eager sibling-feasibility
// query. On Sat it additionally returns a model of the path ∧ query when one
// is available in full (nil otherwise), for seeding the sibling path's stack.
// Sibling models are not pushed onto this path's stack: the path is about to
// assert the negation of the query, which the model fails by construction.
func (l *Local) CheckSibling(query *smt.Term) (solver.Result, Model) {
	res, env, complete := l.check(query, false)
	if res != solver.Sat || !complete {
		return res, nil
	}
	return res, env
}

// CheckWitness answers the engine's witness query (path ∧ cond) and, when
// the answer is Sat, returns the witnessing model. A nil model with a Sat
// result means the query passed through to the solver, whose model state
// holds the witness. Cache hits only short-circuit when their model covers
// the whole constraint set, so a returned model is always a genuine witness.
func (l *Local) CheckWitness(query *smt.Term) (solver.Result, Model) {
	res, env, complete := l.check(query, true)
	if res == solver.Sat && env != nil && complete {
		return res, env
	}
	if env == nil && res != solver.Unsat && res != solver.Unknown {
		// Answered by the solver directly: its model state is current.
		return res, nil
	}
	if res == solver.Sat {
		// Sat via a partial-model cache answer: re-derive a full witness from
		// the solver. This is a model-bearing pass-through, counted in
		// ModelQueries only — the feasibility query itself was already
		// accounted (Queries plus a hit counter or CDCL) by check().
		l.stats.ModelQueries++
		full := l.withQuery(query)
		if r := l.sol.Check(full...); r != solver.Sat {
			return r, nil
		}
		l.pushSolverModel(full)
		return solver.Sat, nil
	}
	return res, nil
}

// CheckModel answers satisfiability of the path plus the optional query with
// a guaranteed pass-through to the solver, so the engine can read model
// values afterwards (concretization, test vectors). The model is also pushed
// onto the path's stack for later stack hits.
func (l *Local) CheckModel(query *smt.Term) solver.Result {
	l.stats.ModelQueries++
	full := l.withQuery(query)
	res := l.sol.Check(full...)
	if res == solver.Sat {
		l.pushSolverModel(full)
	}
	return res
}

// withQuery returns the path followed by query, if any, in a reused buffer.
func (l *Local) withQuery(query *smt.Term) []*smt.Term {
	full := append(l.scratch[:0], l.path...)
	if query != nil {
		full = append(full, query)
	}
	l.scratch = full
	return full
}

// check runs the elimination pipeline. It returns the answer, a model
// witnessing a Sat answer when one is known (possibly restricted to the
// sliced component), and whether that model covers the entire constraint
// set. push allows a freshly derived full-set model onto the path stack;
// callers about to assert the pivot's negation pass false.
func (l *Local) check(query *smt.Term, push bool) (solver.Result, Model, bool) {
	defer l.h.Start(obs.PhaseCacheProbe).End()
	l.stats.Queries++

	pivot := query
	if pivot == nil {
		if len(l.path) == 0 {
			l.stats.CDCL++
			return l.sol.Check(), nil, false
		}
		pivot = l.path[len(l.path)-1]
	}

	// Stage 1: stack models. Every stacked model satisfies all observed
	// constraints — exactly all minus an unobserved pivot — so evaluating
	// the pivot alone decides the whole conjunction.
	for i := len(l.stack) - 1; i >= 0; i-- {
		if v, err := l.stack[i].ev.EvalBool(pivot); err == nil && v {
			l.stats.StackHits++
			return solver.Sat, l.stack[i].env, true
		}
	}

	// Stage 2: independence slicing.
	dropped := l.markSlice(pivot)

	// Stage 3: exact fingerprint lookup (local map, then shared store).
	ph := l.ctx.StructuralHash(pivot)
	key, hs := l.sliceKey(ph, query != nil, dropped) // alias reused buffers
	if e := l.lookup(key); e != nil {
		l.stats.ExactHits++
		if e.store {
			l.stats.StoreHits++
		}
		return l.hitResult(e, dropped, push)
	}

	// Stage 4: superset-of-unsat. Any known-unsat subset proves this set
	// unsat.
	if e := l.supersetUnsat(ph, hs); e != nil {
		l.stats.SupersetUnsat++
		if e.store {
			l.stats.StoreHits++
		}
		return solver.Unsat, nil, false
	}

	// Stage 5: the SAT core, on the slice only.
	l.stats.CDCL++
	if dropped > 0 {
		l.stats.SlicedQueries++
		l.stats.SlicedDropped += uint64(dropped)
	}
	slice := l.sliceTerms(query, dropped)
	res, core := l.sol.CheckCore(slice...)
	switch res {
	case solver.Sat:
		l.stats.CDCLSat++
		env := l.captureModel(slice)
		l.record(key, hs, true, env)
		merged, complete := l.mergeWithStack(env, dropped == 0)
		if complete && push {
			l.push(merged)
		}
		return solver.Sat, merged, complete
	case solver.Unsat:
		l.stats.CDCLUnsat++
		if len(core) > 0 && len(core) < len(slice) {
			// Record the unsat core rather than the whole set: every future
			// superset of the core — the same forced branch under different
			// unrelated constraints — is answered by the superset rule.
			ckey, chs := l.fingerprint(core)
			l.record(ckey, chs, false, nil)
		} else {
			l.record(key, hs, false, nil)
		}
		return solver.Unsat, nil, false
	}
	return solver.Unknown, nil, false
}

// hitResult converts a cache entry into a pipeline answer, merging sat
// models over the current stack to recover a full-set witness when possible.
func (l *Local) hitResult(e *entry, dropped int, push bool) (solver.Result, Model, bool) {
	if !e.sat {
		return solver.Unsat, nil, false
	}
	merged, complete := l.mergeWithStack(e.model, dropped == 0)
	if complete && push {
		l.push(merged)
	}
	return solver.Sat, merged, complete
}

// mergeWithStack overlays a slice model onto the newest stacked model. env
// must be restricted to and total over the slice's support (the invariant
// record and captureModel maintain): restricted, so overlaying cannot
// disturb the base's values outside the slice — the slice is a union of
// whole variable-sharing components, disjoint from the remaining
// constraints' variables; total, so the base cannot supply a value for a
// slice variable that env's validation read as zero. The result covers the
// entire constraint set when a base exists or when the slice was the whole
// set (sliceIsAll).
func (l *Local) mergeWithStack(env Model, sliceIsAll bool) (Model, bool) {
	if n := len(l.stack); n > 0 {
		base := l.stack[n-1].env
		merged := make(Model, len(base)+len(env))
		for k, v := range base {
			merged[k] = v
		}
		for k, v := range env {
			merged[k] = v
		}
		return merged, true
	}
	return env, sliceIsAll
}

// push adds a full-set model to the path stack, evicting the oldest
// non-seed model when full.
func (l *Local) push(env Model) {
	m := stackModel{env: env, ev: l.evaluator(env)}
	if len(l.stack) < maxStack {
		l.stack = append(l.stack, m)
		return
	}
	i := 0
	if l.stack[0].seed {
		i = 1
	}
	l.free = append(l.free, l.stack[i].ev)
	copy(l.stack[i:], l.stack[i+1:])
	l.stack[len(l.stack)-1] = m
}

// pushSolverModel captures the solver's current model over the support of
// the given constraints and pushes it as a full-set stack model.
func (l *Local) pushSolverModel(full []*smt.Term) {
	l.push(l.captureModel(full))
}

// captureModel reads the solver model restricted to — and total over — the
// support variables of the given constraints. Variables the solver never
// encoded read zero and are recorded explicitly, so the model stays a valid
// witness after mergeWithStack overlays it onto a stack base.
func (l *Local) captureModel(ts []*smt.Term) Model {
	l.newEpoch()
	ids := l.idBuf[:0]
	for _, t := range ts {
		for _, id := range l.supportOf(t) {
			if l.mark[id-1] != l.epoch {
				l.mark[id-1] = l.epoch
				ids = append(ids, id)
			}
		}
	}
	l.idBuf = ids
	env := make(Model, len(ids))
	for _, id := range ids {
		v := l.ctx.TermByID(id)
		env[v.Name()], _ = l.sol.VarValue(v)
	}
	return env
}

// record creates, indexes and schedules for publication a new cache entry.
// key and hs are copied: fingerprint returns reused buffers, entries are
// immutable.
func (l *Local) record(key []byte, hs []uint64, sat bool, model Model) {
	owned := slices.Clone(hs)
	e := &entry{key: string(key), hs: owned, bloom: bloomOf(owned), sat: sat, model: model}
	l.entries[e.key] = e
	l.pending = append(l.pending, e)
	l.index(e)
}

// index adds an unsat entry to the superset-rule index, under each of its
// hashes; sat entries are reached by exact key only.
func (l *Local) index(e *entry) {
	if !e.sat {
		for _, h := range e.hs {
			l.unsatBy[h] = append(l.unsatBy[h], e)
		}
	}
}

// lookup finds an entry by key in the local map, falling back to the shared
// store; shared finds are adopted locally (and indexed, so shared unsat
// entries join the local superset reasoning). Neither map probe allocates.
func (l *Local) lookup(key []byte) *entry {
	if e, ok := l.entries[string(key)]; ok {
		return e
	}
	if l.shared == nil {
		return nil
	}
	e := l.shared.get(key)
	if e != nil {
		l.entries[e.key] = e
		l.index(e)
	}
	return e
}

// bloomOf folds a hash set into a 64-bit membership signature.
func bloomOf(hs []uint64) uint64 {
	var b uint64
	for _, h := range hs {
		b |= 1 << (h & 63)
	}
	return b
}

// supersetUnsat returns a known-unsat subset entry of the sorted hash set
// hs, or nil. Only entries holding the pivot's hash ph are candidates, which
// is exact: the engine keeps the path satisfiable, so every unsat subset of
// path ∪ {pivot} contains the pivot (were that broken, a pivot-free subset
// would cost a hit, never an answer). It returns the subset with the least
// smallest hash, earliest indexed on ties — the one an ascending scan over
// smallest-hash buckets finds — so StoreHits does not depend on the index.
func (l *Local) supersetUnsat(ph uint64, hs []uint64) *entry {
	q := bloomOf(hs)
	var best *entry
	for _, e := range l.unsatBy[ph] {
		if (best == nil || e.hs[0] < best.hs[0]) && e.bloom&^q == 0 && len(e.hs) <= len(hs) && isSubset(e.hs, hs) {
			best = e
		}
	}
	return best
}

// isSubset reports whether sorted slice sub is a subset of sorted slice sup.
func isSubset(sub, sup []uint64) bool {
	i := 0
	for _, h := range sub {
		for i < len(sup) && sup[i] < h {
			i++
		}
		if i >= len(sup) || sup[i] != h {
			return false
		}
		i++
	}
	return true
}

// keysOf returns t's union-find keys: its variables or, without any, its own
// ID, a component of its own that only an identical pivot reaches.
func (l *Local) keysOf(t *smt.Term) []uint32 {
	if sup := l.supportOf(t); len(sup) > 0 {
		return sup
	}
	return []uint32{t.ID()}
}

// join unites one constraint's sorted, non-empty keys, adding those new to
// the path, and returns the root: of two roots, the one with more constraints.
func (l *Local) join(keys []uint32) uint32 {
	if n := l.ctx.NumTerms(); int(keys[len(keys)-1]) > len(l.parent) {
		l.parent = append(l.parent, make([]uint32, n-len(l.parent))...)
		l.count = append(l.count, make([]uint32, n-len(l.count))...)
	}
	var r uint32
	for _, v := range keys {
		if l.parent[v-1] == 0 {
			l.parent[v-1], l.count[v-1] = v, 0
			l.onPath = append(l.onPath, v)
		}
		switch v = l.find(v); {
		case r == 0:
			r = v
		case v != r:
			if l.count[v-1] > l.count[r-1] {
				r, v = v, r
			}
			l.parent[v-1] = r
			l.count[r-1] += l.count[v-1]
		}
	}
	return r
}

// find returns the root of path key v, halving the path to it.
func (l *Local) find(v uint32) uint32 {
	for l.parent[v-1] != v {
		l.parent[v-1] = l.parent[l.parent[v-1]-1]
		v = l.parent[v-1]
	}
	return v
}

// markSlice marks, in a fresh epoch, the roots of the pivot's components and
// returns how many path constraints lie outside them. The marked components
// plus the pivot are the slice: the fixed point of "shares a variable with
// the slice" started from the pivot.
func (l *Local) markSlice(pivot *smt.Term) int {
	l.newEpoch()
	in := 0
	for _, v := range l.keysOf(pivot) {
		if int(v) > len(l.parent) || l.parent[v-1] == 0 {
			continue // in no path constraint
		}
		if r := l.find(v); l.mark[r-1] != l.epoch {
			l.mark[r-1] = l.epoch
			in += int(l.count[r-1])
		}
	}
	return len(l.path) - in
}

// inSlice reports whether markSlice marked the component of key.
func (l *Local) inSlice(key uint32) bool { return l.mark[l.find(key)-1] == l.epoch }

// sliceTerms returns the slice in path order, the query last; a duplicated
// constraint stays duplicated, as the solver tolerates repeated conjuncts.
// The result aliases a reused buffer.
func (l *Local) sliceTerms(query *smt.Term, dropped int) []*smt.Term {
	s := l.scratch[:0]
	for _, t := range l.path {
		if dropped == 0 || l.inSlice(l.keysOf(t)[0]) {
			s = append(s, t)
		}
	}
	if query != nil {
		s = append(s, query)
	}
	l.scratch = s
	return s
}

// sliceKey returns fingerprint(sliceTerms(...)) without sorting: it walks the
// sorted path hashes, filtered to the slice when constraints were dropped,
// and merges in the pivot's hash ph when the pivot is a query, not a path
// constraint. Both results alias reused buffers.
func (l *Local) sliceKey(ph uint64, query bool, dropped int) ([]byte, []uint64) {
	hs := l.hsBuf[:0]
	for _, p := range l.byHash {
		if dropped > 0 && !l.inSlice(p.key) {
			continue
		}
		if query && ph <= p.h {
			hs, query = appendNew(hs, ph), false
		}
		hs = appendNew(hs, p.h)
	}
	if query {
		hs = appendNew(hs, ph)
	}
	l.hsBuf = hs
	return l.key(hs), hs
}

// appendNew appends h to the sorted hs unless it is already hs's last
// element.
func appendNew(hs []uint64, h uint64) []uint64 {
	if n := len(hs); n > 0 && hs[n-1] == h {
		return hs
	}
	return append(hs, h)
}

// fingerprint returns the canonical key of a constraint set, KeyOf of the
// sorted, deduplicated context-independent structural hashes of its members,
// together with those hashes. Identical sets built in different contexts (or
// discovered in different orders) produce identical keys. It sorts, so the
// pipeline uses it only to record unsat cores. Both results alias reused
// buffers, valid until the next call.
func (l *Local) fingerprint(ts []*smt.Term) ([]byte, []uint64) {
	hs := l.hsBuf[:0]
	for _, t := range ts {
		hs = append(hs, l.ctx.StructuralHash(t))
	}
	slices.Sort(hs)
	// Deduplicate equal hashes so a twice-asserted condition keys the same
	// set as a once-asserted one (collisions between distinct terms are
	// astronomically unlikely and harmless to keep once).
	out := hs[:0]
	for _, h := range hs {
		out = appendNew(out, h)
	}
	l.hsBuf = out
	return l.key(out), out
}

// key writes KeyOf(hs) into the reused key buffer.
func (l *Local) key(hs []uint64) []byte {
	if cap(l.keyBuf) < 8*len(hs) {
		l.keyBuf = make([]byte, 8*len(hs))
	}
	buf := l.keyBuf[:8*len(hs)]
	for i, h := range hs {
		binary.BigEndian.PutUint64(buf[i*8:], h)
	}
	return buf
}

// newEpoch starts a fresh marking of the mark table, first growing it over
// every term interned so far.
func (l *Local) newEpoch() {
	if n := l.ctx.NumTerms(); n > len(l.mark) {
		l.mark = append(l.mark, make([]uint32, n-len(l.mark))...)
	}
	l.epoch++
	if l.epoch == 0 {
		clear(l.mark)
		l.epoch = 1
	}
}

// supportOf returns the sorted variable IDs occurring in t, memoized per
// term.
func (l *Local) supportOf(t *smt.Term) []uint32 {
	id := t.ID()
	if int(id) > len(l.support) {
		l.support = append(l.support, make([][]uint32, l.ctx.NumTerms()-len(l.support))...)
	}
	if s := l.support[id-1]; s != nil {
		return s
	}
	var s []uint32
	switch {
	case t.Kind() == smt.KVar:
		s = []uint32{t.ID()}
	case t.NumArgs() == 0:
		s = []uint32{}
	default:
		s = l.supportOf(t.Arg(0))
		for i := 1; i < t.NumArgs(); i++ {
			s = mergeSorted(s, l.supportOf(t.Arg(i)))
		}
	}
	l.support[id-1] = s
	return s
}

// mergeSorted returns the sorted union of two sorted ID slices.
func mergeSorted(a, b []uint32) []uint32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
