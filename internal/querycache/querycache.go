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
//     component connected to the queried condition is sent to the solver.
//     Because the engine maintains the invariant that the path constraints
//     are always satisfiable, and distinct components share no variables,
//     the sliced answer equals the full answer.
//
//  3. Counterexample caching: answers are cached under a canonical
//     fingerprint of the sliced constraint set (sorted context-independent
//     structural hashes, so entries are valid across solver contexts and
//     parexplore workers). An exact fingerprint match returns the cached
//     answer; a superset of a known-unsat set is unsat. Unsat answers are
//     recorded as the solver's unsat core when it is smaller than the slice,
//     so the superset rule covers every later query containing the core.
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

// get returns the entry for key, or nil.
func (s *Shared) get(key string) *entry {
	s.mu.RLock()
	e := s.m[key]
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
// misses fall back to the Shared store when attached. Not safe for
// concurrent use.
type Local struct {
	ctx    *smt.Context
	sol    *solver.Solver
	shared *Shared

	entries    map[string]*entry
	unsatByMin map[uint64][]*entry // local unsat entries indexed by smallest hash
	pending    []*entry            // locally created entries not yet flushed

	support map[uint32][]uint32 // term ID -> sorted support variable IDs

	stack []stackModel // models of the current path's constraint set

	// Reusable per-query buffers (valid only within one pipeline call).
	scratch  []*smt.Term // query assembly buffer
	inComp   map[uint32]struct{}
	usedBuf  []bool
	sliceBuf []*smt.Term
	hsBuf    []uint64
	keyBuf   []byte
	seenVar  map[uint32]struct{}
	stats    Stats

	h *obs.Handle
}

// NewLocal returns a query-elimination layer over the given context and
// solver. shared may be nil (sequential exploration).
func NewLocal(ctx *smt.Context, sol *solver.Solver, shared *Shared) *Local {
	return &Local{
		ctx:        ctx,
		sol:        sol,
		shared:     shared,
		entries:    make(map[string]*entry, 256),
		unsatByMin: make(map[uint64][]*entry, 64),
		support:    make(map[uint32][]uint32, 256),
		inComp:     make(map[uint32]struct{}, 64),
		seenVar:    make(map[uint32]struct{}, 64),
	}
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

// BeginPath resets the per-path model stack for a new path. seed, when
// non-nil, is a model known to satisfy the path's replayed constraint prefix
// (captured when the sibling was proven feasible).
func (l *Local) BeginPath(seed Model) {
	l.stack = l.stack[:0]
	if seed != nil {
		l.stack = append(l.stack, stackModel{env: seed, ev: smt.NewEvaluator(seed), seed: true})
	}
}

// Observe tells the layer a constraint was appended to the path. trusted
// marks replayed constraints, which the seed model is known to satisfy
// (program determinism); all other models are revalidated by evaluation and
// dropped when they no longer satisfy the constraint set.
func (l *Local) Observe(t *smt.Term, trusted bool) {
	keep := l.stack[:0]
	for _, m := range l.stack {
		if trusted && m.seed {
			keep = append(keep, m)
			continue
		}
		if v, err := m.ev.EvalBool(t); err == nil && v {
			keep = append(keep, m)
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

// CheckFeasible answers satisfiability of pcs plus the optional query
// condition through the full elimination pipeline. A nil query makes the
// last element of pcs the pivot (the engine's flip check).
func (l *Local) CheckFeasible(pcs []*smt.Term, query *smt.Term) solver.Result {
	res, _, _ := l.check(pcs, query, true)
	return res
}

// CheckSibling is CheckFeasible for the engine's eager sibling-feasibility
// query. On Sat it additionally returns a model of pcs ∧ query when one is
// available in full (nil otherwise), for seeding the sibling path's stack.
// Sibling models are not pushed onto this path's stack: the path is about to
// assert the negation of the query, which the model fails by construction.
func (l *Local) CheckSibling(pcs []*smt.Term, query *smt.Term) (solver.Result, Model) {
	res, env, complete := l.check(pcs, query, false)
	if res != solver.Sat || !complete {
		return res, nil
	}
	return res, env
}

// CheckWitness answers the engine's witness query (pcs ∧ cond) and, when the
// answer is Sat, returns the witnessing model. A nil model with a Sat result
// means the query passed through to the solver, whose model state holds the
// witness. Cache hits only short-circuit when their model covers the whole
// constraint set, so a returned model is always a genuine witness.
func (l *Local) CheckWitness(pcs []*smt.Term, query *smt.Term) (solver.Result, Model) {
	res, env, complete := l.check(pcs, query, true)
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
		full := append(l.scratch[:0], pcs...)
		if query != nil {
			full = append(full, query)
		}
		l.scratch = full
		if r := l.sol.Check(full...); r != solver.Sat {
			return r, nil
		}
		l.pushSolverModel(full)
		return solver.Sat, nil
	}
	return res, nil
}

// CheckModel answers satisfiability of pcs plus the optional query with a
// guaranteed pass-through to the solver, so the engine can read model values
// afterwards (concretization, test vectors). The model is also pushed onto
// the path's stack for later stack hits.
func (l *Local) CheckModel(pcs []*smt.Term, query *smt.Term) solver.Result {
	l.stats.ModelQueries++
	full := append(l.scratch[:0], pcs...)
	if query != nil {
		full = append(full, query)
	}
	l.scratch = full
	res := l.sol.Check(full...)
	if res == solver.Sat {
		l.pushSolverModel(full)
	}
	return res
}

// check runs the elimination pipeline. It returns the answer, a model
// witnessing a Sat answer when one is known (possibly restricted to the
// sliced component), and whether that model covers the entire constraint
// set. push allows a freshly derived full-set model onto the path stack;
// callers about to assert the pivot's negation pass false.
func (l *Local) check(pcs []*smt.Term, query *smt.Term, push bool) (solver.Result, Model, bool) {
	defer l.h.Start(obs.PhaseCacheProbe).End()
	l.stats.Queries++

	all := append(l.scratch[:0], pcs...)
	if query != nil {
		all = append(all, query)
	}
	l.scratch = all
	if len(all) == 0 {
		l.stats.CDCL++
		return l.sol.Check(), nil, false
	}
	pivot := all[len(all)-1]

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
	slice, dropped := l.slice(all, pivot)

	// Stage 3: exact fingerprint lookup (local map, then shared store).
	key, hs := l.fingerprint(slice)
	if e := l.lookup(key); e != nil {
		l.stats.ExactHits++
		if e.store {
			l.stats.StoreHits++
		}
		return l.hitResult(e, dropped, push)
	}

	// Stage 4: superset-of-unsat. Any known-unsat subset proves this set
	// unsat.
	if e := l.supersetUnsat(hs); e != nil {
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
	m := stackModel{env: env, ev: smt.NewEvaluator(env)}
	if len(l.stack) < maxStack {
		l.stack = append(l.stack, m)
		return
	}
	i := 0
	if l.stack[0].seed {
		i = 1
	}
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
	seen := l.seenVar
	clear(seen)
	env := make(Model, 32)
	for _, t := range ts {
		for _, id := range l.supportOf(t) {
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			v := l.ctx.TermByID(id)
			mv, _ := l.sol.VarValue(v)
			env[v.Name()] = mv
		}
	}
	return env
}

// record creates, indexes and schedules for publication a new cache entry.
// hs is copied: fingerprint returns a reused buffer, entries are immutable.
func (l *Local) record(key string, hs []uint64, sat bool, model Model) {
	owned := make([]uint64, len(hs))
	copy(owned, hs)
	e := &entry{key: key, hs: owned, bloom: bloomOf(owned), sat: sat, model: model}
	l.entries[key] = e
	l.pending = append(l.pending, e)
	l.index(e)
}

// index adds an unsat entry to the superset-rule index; sat entries are
// reached by exact key only.
func (l *Local) index(e *entry) {
	if !e.sat && len(e.hs) > 0 {
		min := e.hs[0]
		l.unsatByMin[min] = append(l.unsatByMin[min], e)
	}
}

// lookup finds an entry by key in the local map, falling back to the shared
// store; shared finds are adopted locally (and indexed, so shared unsat
// entries join the local superset reasoning).
func (l *Local) lookup(key string) *entry {
	if e, ok := l.entries[key]; ok {
		return e
	}
	if l.shared == nil {
		return nil
	}
	e := l.shared.get(key)
	if e != nil {
		l.entries[key] = e
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
// hs, or nil. Candidates are the local unsat entries whose smallest hash
// occurs in hs (a necessary condition for subset-hood); the bloom signature
// and the size comparison reject almost all of them before the element-wise
// scan.
func (l *Local) supersetUnsat(hs []uint64) *entry {
	q := bloomOf(hs)
	for _, h := range hs {
		for _, e := range l.unsatByMin[h] {
			if e.bloom&^q == 0 && len(e.hs) <= len(hs) && isSubset(e.hs, hs) {
				return e
			}
		}
	}
	return nil
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

// slice returns the members of all connected to pivot under the shares-a-
// variable relation (always including pivot itself), deduplicated, plus the
// number of constraints left out. The returned slice aliases a reusable
// buffer valid until the next call.
func (l *Local) slice(all []*smt.Term, pivot *smt.Term) ([]*smt.Term, int) {
	inComp := l.inComp
	clear(inComp)
	for _, id := range l.supportOf(pivot) {
		inComp[id] = struct{}{}
	}
	if cap(l.usedBuf) < len(all) {
		l.usedBuf = make([]bool, len(all))
	}
	used := l.usedBuf[:len(all)]
	for i := range used {
		used[i] = false
	}
	for changed := true; changed; {
		changed = false
		for i, t := range all {
			if used[i] {
				continue
			}
			if t == pivot {
				used[i] = true
				changed = true
				continue
			}
			sup := l.supportOf(t)
			touch := false
			for _, id := range sup {
				if _, ok := inComp[id]; ok {
					touch = true
					break
				}
			}
			if !touch {
				continue
			}
			used[i] = true
			changed = true
			for _, id := range sup {
				inComp[id] = struct{}{}
			}
		}
	}
	// Duplicate terms (a condition asserted twice) are kept: the fingerprint
	// deduplicates their hashes, and the solver tolerates repeated conjuncts.
	slice := l.sliceBuf[:0]
	dropped := 0
	for i, t := range all {
		if !used[i] {
			dropped++
			continue
		}
		slice = append(slice, t)
	}
	l.sliceBuf = slice
	return slice, dropped
}

// fingerprint returns the canonical key of a constraint set: the sorted,
// deduplicated context-independent structural hashes of its members,
// serialised big-endian. Identical sets built in different contexts (or
// discovered in different orders) produce identical keys.
func (l *Local) fingerprint(ts []*smt.Term) (string, []uint64) {
	hs := l.hsBuf[:0]
	for _, t := range ts {
		hs = append(hs, l.ctx.StructuralHash(t))
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	// Deduplicate equal hashes so a twice-asserted condition keys the same
	// set as a once-asserted one (collisions between distinct terms are
	// astronomically unlikely and harmless to keep once).
	out := hs[:0]
	var prev uint64
	for i, h := range hs {
		if i > 0 && h == prev {
			continue
		}
		out = append(out, h)
		prev = h
	}
	hs = out
	l.hsBuf = hs
	if cap(l.keyBuf) < 8*len(hs) {
		l.keyBuf = make([]byte, 8*len(hs))
	}
	buf := l.keyBuf[:8*len(hs)]
	for i, h := range hs {
		binary.BigEndian.PutUint64(buf[i*8:], h)
	}
	return string(buf), hs
}

// supportOf returns the sorted variable IDs occurring in t, memoized per
// term.
func (l *Local) supportOf(t *smt.Term) []uint32 {
	if s, ok := l.support[t.ID()]; ok {
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
	l.support[t.ID()] = s
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
