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
//     parexplore workers). An exact fingerprint match returns the cached
//     answer; a superset of a known-unsat set is unsat. Unsat answers are
//     recorded as the solver's unsat core when it is smaller than the
//     slice, so the superset rule covers every later query containing the
//     core. Entries are found by a set hash, the wrapping sum of the
//     members' structural hashes, which each union-find component keeps as
//     Observe grows it; unsat entries are also indexed under each of their
//     hashes, and a probe tests only its pivot's bucket. Membership in the
//     probe's set is a slot test, so a probe never walks the path.
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
// A Local is single-goroutine (one per core.Explorer); a Shared is the
// read-mostly cross-worker store, written in batches at handoff points.
package querycache

import (
	"cmp"
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
// fails. Names are the form a model takes where it leaves one term context:
// the Shared store, persistent entries and portable decision prefixes.
type Model map[string]uint64

// Lookup implements smt.Env with a zero default.
func (m Model) Lookup(name string, _ int) (uint64, bool) { return m[name], true }

// binding is one variable's value in a VarModel.
type binding struct {
	id  uint32 // the variable's term ID
	val uint64
}

// VarModel is a concrete assignment over the variables of one Local's term
// context: bindings sorted by variable term ID, with the zero default of
// Model for variables it does not bind. It holds no pointers, so the models
// a path stacks and hands out cost the garbage collector nothing to scan. A
// VarModel returned by a Local is immutable.
type VarModel []binding

// Value returns v's value under m.
func (m VarModel) Value(v *smt.Term) uint64 {
	if i, ok := slices.BinarySearchFunc(m, v.ID(), cmpID); ok {
		return m[i].val
	}
	return 0
}

func cmpID(b binding, id uint32) int { return cmp.Compare(b.id, id) }

// Names returns m keyed by variable name; ctx is the context m's term IDs
// belong to.
func (m VarModel) Names(ctx *smt.Context) Model {
	out := make(Model, len(m))
	for _, b := range m {
		out[ctx.TermByID(b.id).Name()] = b.val
	}
	return out
}

// varModel resolves a named model over ctx's variables. A name ctx has not
// interned is dropped: no term of ctx reads it.
func varModel(ctx *smt.Context, m Model) VarModel {
	out := make(VarModel, 0, len(m))
	for name, val := range m { //symlint:allow determinism -- sorted by term ID below
		if v := ctx.LookupVar(name); v != nil {
			out = append(out, binding{v.ID(), val})
		}
	}
	slices.SortFunc(out, func(a, b binding) int { return cmp.Compare(a.id, b.id) })
	return out
}

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

// entry is one cached feasibility answer in a Local's entry list, named by
// its index. The constraint set the answer is for is a deduplicated set of
// structural hashes, stored as the hashes' slots (see Local), n of them at
// block sb, offset so of the slots arena: ascending by hash in an unsat
// entry, whose smallest hash the superset rule reads, and in slice order in
// a sat entry, which only exact lookups and Flush read. A sat
// entry's model, mn bindings at block mb, offset mo of the models arena, is
// a witness restricted to — and total over — the set's support variables,
// with explicit zeros for variables the solver left unconstrained. Totality
// is what lets mergeWithStack overlay the model onto a stack base without
// the base's values leaking into the validated assignment. Entries are
// immutable once created and hold no pointers.
type entry struct {
	sb, so, n  uint32
	mb, mo, mn uint32
	next       uint32 // index+1 of the next older entry with the same set hash; 0 ends
	sat        bool
	store      bool // loaded from the persistent store, not created this run
}

// arena is append-only storage in blocks that never move: growth adds a
// block instead of copying the old ones, and a run handed out stays valid.
// Block capacities double from 256 elements up to arenaBlock.
type arena[T any] struct{ blocks [][]T }

const arenaBlock = 1 << 14

// add appends xs as one run and returns its block and offset.
func (a *arena[T]) add(xs []T) (uint32, uint32) {
	k := len(a.blocks) - 1
	if k < 0 || cap(a.blocks[k])-len(a.blocks[k]) < len(xs) {
		size := 256
		if k >= 0 {
			size = min(2*cap(a.blocks[k]), arenaBlock)
		}
		a.blocks = append(a.blocks, make([]T, 0, max(size, len(xs))))
		k++
	}
	off := len(a.blocks[k])
	a.blocks[k] = append(a.blocks[k], xs...)
	return uint32(k), uint32(off)
}

// run returns the n elements at block k, offset off.
func (a *arena[T]) run(k, off, n uint32) []T { return a.blocks[k][off : off+n : off+n] }

// link is one cell of a slot's chain, the list of the unsat entries holding
// the slot's hash: an entry index and the next cell, cells named by index+1
// (0 = none). A chain is ordered by its entries' smallest hash, then index.
type link struct{ entry, next uint32 }

// sharedEntry is one entry of the cross-worker store, in the
// context-independent form: the key, KeyOf of the sorted hashes, which it
// stores only once, and a model by name. next links the older entries with
// the same set hash; it is set before the entry is published and never
// changes.
type sharedEntry struct {
	key   string
	sat   bool
	model Model
	store bool
	next  *sharedEntry
}

// sharedLimit bounds the cross-worker store (entries, not bytes).
const sharedLimit = 1 << 20

// Shared is the cross-worker cache store: a read-mostly map from canonical
// fingerprint to entry, indexed by set hash. Workers look entries up
// lock-cheaply (RLock) on every local miss, by the set hash their probe
// already holds, and publish their locally created entries in batches at
// handoff points (Local.Flush). First writer wins; since any entry for a key
// is a sound answer for that key, the race on who publishes first never
// changes an answer. Entries carry models by variable name, because every
// worker interns its variables under its own term IDs.
type Shared struct {
	mu    sync.RWMutex
	m     map[string]*sharedEntry
	bySum map[uint64]*sharedEntry // set hash -> newest entry with it
}

// NewShared returns an empty cross-worker store.
func NewShared() *Shared {
	return &Shared{m: make(map[string]*sharedEntry, 1024), bySum: make(map[uint64]*sharedEntry, 1024)}
}

// get returns the entry with set hash sum whose key match accepts, or nil.
func (s *Shared) get(sum uint64, match func(key string) bool) *sharedEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for e := s.bySum[sum]; e != nil; e = e.next {
		if match(e.key) {
			return e
		}
	}
	return nil
}

// insert stores e, whose key has set hash sum, unless its key is present or
// the store is full, and reports whether it did. The caller holds the write
// lock.
func (s *Shared) insert(e *sharedEntry, sum uint64) bool {
	if _, ok := s.m[e.key]; ok || len(s.m) >= sharedLimit {
		return false
	}
	e.next = s.bySum[sum]
	s.m[e.key], s.bySum[sum] = e, e
	return true
}

// put publishes a batch of entries, keeping the first entry per key.
func (s *Shared) put(batch []*sharedEntry) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	for _, e := range batch {
		s.insert(e, keySum(e.key))
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
// Local.key.
func KeyOf(hs []uint64) string {
	buf := make([]byte, 8*len(hs))
	for i, h := range hs {
		binary.BigEndian.PutUint64(buf[i*8:], h)
	}
	return string(buf)
}

// hashesOf inverts KeyOf.
func hashesOf(key string) []uint64 {
	hs := make([]uint64, len(key)/8)
	for i := range hs {
		hs[i] = keyHash(key, i)
	}
	return hs
}

// keyHash returns the i-th hash of a KeyOf key.
func keyHash(key string, i int) uint64 {
	var h uint64
	for _, c := range []byte(key[8*i : 8*i+8]) {
		h = h<<8 | uint64(c)
	}
	return h
}

// keySum returns the set hash of a KeyOf key: the wrapping sum of its
// hashes, the value each Local keeps per union-find component.
func keySum(key string) uint64 {
	var sum uint64
	for i := range len(key) / 8 {
		sum += keyHash(key, i)
	}
	return sum
}

// Snapshot returns a portable copy of every stored entry whose key skip
// does not hold (nil skips none), sorted by key so the output is
// deterministic for a given entry set. The hash slices are decoded from the
// keys; the models alias the immutable entries and must be treated as
// read-only.
func (s *Shared) Snapshot(skip map[string]struct{}) []PortableEntry {
	s.mu.RLock()
	var keys []string
	for k := range s.m { //symlint:allow determinism -- sorted below
		if _, ok := skip[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]PortableEntry, 0, len(keys))
	for _, k := range keys {
		e := s.m[k]
		out = append(out, PortableEntry{Key: k, Hashes: hashesOf(k), Sat: e.sat, Model: e.model})
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
	if len(s.m) == 0 && len(es) > 1024 {
		// A store loading into an empty cache: size both maps once.
		size := min(len(es), sharedLimit)
		s.m = make(map[string]*sharedEntry, size)
		s.bySum = make(map[uint64]*sharedEntry, size)
	}
	for _, pe := range es {
		if !validPortable(pe) {
			continue
		}
		if len(s.m) >= sharedLimit {
			break
		}
		var sum uint64
		for _, h := range pe.Hashes {
			sum += h
		}
		if s.insert(&sharedEntry{key: KeyOf(pe.Hashes), sat: pe.Sat, model: pe.Model, store: true}, sum) {
			n++
		}
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
// evaluator, with the model's variables bound: path constraints share most
// of their term DAG, so keeping the evaluation cache alive across Observe
// calls costs each DAG node once per model per path instead of once per
// constraint. named, set only for a seed imported from another context,
// holds that seed by name, since its variables may not be interned until
// the replay reaches them; its evaluator reads them by name as they appear.
type stackModel struct {
	m     VarModel
	named Model
	ev    *smt.Evaluator
	seed  bool
}

// maxStack bounds the per-path model stack.
const maxStack = 4

// chunkSize is the number of bindings keep allocates at a time.
const chunkSize = 1024

// Local is one worker's view of the query-elimination layer. It owns the
// per-path model stack, the per-term support memo, and a private entry
// arena; misses fall back to the Shared store when attached. Per-term state
// lives in dense tables indexed by term ID-1, grown as the context interns
// new terms. Not safe for concurrent use.
//
// Every structural hash the Local meets gets a dense slot (slotOf, hashes),
// so entries, the exact-lookup map and the superset index hold 32-bit slots:
// their tables hold no pointers, and whether a probe's set holds a hash is a
// test on its slot (inProbe).
type Local struct {
	ctx    *smt.Context
	sol    *solver.Solver
	shared *Shared

	entries []entry           // every entry, by index
	slots   arena[uint32]     // entries' hash slots
	models  arena[binding]    // sat entries' models
	exact   map[uint64]uint32 // set hash of an entry's slots -> newest such entry's index+1
	chains  []uint32          // slot-1 -> first cell of the chain of the slot's hash
	links   []link            // chain cells
	pending []uint32          // entries created here and not yet flushed

	slotOf   map[uint64]uint32 // structural hash -> slot (1-based)
	hashes   []uint64          // slot-1 -> structural hash
	termSlot []uint32          // term ID-1 -> slot of its structural hash; 0 = not yet looked up

	support [][]uint32 // term ID-1 -> sorted support variable IDs; nil = not yet computed

	stack []stackModel     // models of the current path's constraint set
	free  []*smt.Evaluator // evaluators of dropped stack models, for reuse
	chunk []binding        // keep's current block of model storage

	// The current path, kept by BeginPath and Observe. A component's
	// aggregates count each distinct hash once, in the component of the
	// first constraint that carries it (one term: see Observe).
	path    []*smt.Term // observed constraints, in order
	parent  []uint32    // key-1 -> union-find parent key; 0 = not on the path (see keysOf)
	count   []uint32    // root key-1 -> path constraints in its component
	nslots  []uint32    // root key-1 -> distinct hashes in its component
	sum     []uint64    // root key-1 -> set hash of its component: the wrapping sum of those hashes
	onPath  []uint32    // keys with a parent, cleared by BeginPath
	slotN   []uint32    // slot-1 -> path constraints with the slot's hash
	slotKey []uint32    // slot-1 -> a union-find key of the hash's term, while slotN > 0

	// The current probe's set, kept by markSlice and probeSet: n distinct
	// hashes with set hash psum, the marked components' plus the pivot's
	// slot pextra when it is a query on no path constraint (else 0). pall
	// marks a slice that dropped nothing.
	pn     uint32
	psum   uint64
	pextra uint32
	pall   bool

	// Reusable per-query buffers (valid only within one pipeline call).
	scratch []*smt.Term // query assembly buffer (slices, pass-through sets)
	mark    []uint32    // term ID-1 -> epoch that marked it (slice roots, captureModel)
	epoch   uint32
	hmark   []uint32 // slot-1 -> hepoch of the slotSet call that met it
	hepoch  uint32
	ssBuf   []uint32 // a probe's, core's or published entry's slots
	keyBuf  []byte
	idBuf   []uint32 // captureModel's support variables
	mBuf    VarModel // captureModel's and mergeWithStack's result, until kept
	stats   Stats

	h *obs.Handle
}

// NewLocal returns a query-elimination layer over the given context and
// solver. shared may be nil (sequential exploration).
func NewLocal(ctx *smt.Context, sol *solver.Solver, shared *Shared) *Local {
	return &Local{
		ctx:    ctx,
		sol:    sol,
		shared: shared,
		exact:  make(map[uint64]uint32, 256),
		slotOf: make(map[uint64]uint32, 256),
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

// BeginPath starts a new, empty path and resets the per-path model stack.
// seed, when non-nil, is a model known to satisfy the path's replayed
// constraint prefix (captured when the sibling was proven feasible);
// imported is the same for a prefix imported from another context, by
// variable name. At most one of them is non-nil.
func (l *Local) BeginPath(seed VarModel, imported Model) {
	for _, m := range l.stack {
		l.free = append(l.free, m.ev)
	}
	l.stack = l.stack[:0]
	for _, v := range l.onPath {
		l.parent[v-1] = 0
	}
	for _, t := range l.path {
		l.slotN[l.termSlot[t.ID()-1]-1] = 0
	}
	l.onPath, l.path = l.onPath[:0], l.path[:0]
	if seed != nil || imported != nil {
		l.stack = append(l.stack, stackModel{m: seed, named: imported, ev: l.evaluator(seed, imported), seed: true})
	}
}

// evaluator returns an evaluator with m's variables bound and named as the
// environment for the rest (nil: zero), recycled from a dropped stack model
// when one is free.
func (l *Local) evaluator(m VarModel, named Model) *smt.Evaluator {
	var ev *smt.Evaluator
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free = l.free[:n-1]
		ev.Reset(named)
	} else {
		ev = smt.NewEvaluator(named)
	}
	for _, b := range m {
		ev.Bind(l.ctx.TermByID(b.id), b.val)
	}
	return ev
}

// modelOf returns a stack model as a VarModel. An imported seed is resolved
// afresh on each use, so it covers every variable interned so far: after
// the replay, all of its variables (those of the replayed constraints).
func (l *Local) modelOf(sm *stackModel) VarModel {
	if sm.named != nil {
		return varModel(l.ctx, sm.named)
	}
	return sm.m
}

// Observe appends a constraint to the path. trusted marks replayed
// constraints, which the seed model is known to satisfy (program
// determinism); all other models are revalidated by evaluation and dropped
// when they no longer satisfy the constraint set. The constraint's variables
// join one union-find component, and a hash new to the path joins that
// component's slot count and set hash. Terms are hash-consed, so another
// constraint with the same hash is the same term, with the same component.
func (l *Local) Observe(t *smt.Term, trusted bool) {
	l.path = append(l.path, t)
	slot := l.slotOfTerm(t)
	keys := l.keysOf(t)
	r := l.join(keys) - 1
	l.count[r]++
	if l.slotN[slot-1]++; l.slotN[slot-1] == 1 {
		l.slotKey[slot-1] = keys[0]
		l.nslots[r]++
		l.sum[r] += l.hashes[slot-1]
	}

	// Compact in place, writing only the models that move: a stack model
	// holds pointers, and every store of one costs a write barrier while
	// the collector runs.
	n := 0
	for i := range l.stack {
		m := &l.stack[i]
		keep := trusted && m.seed
		if !keep {
			v, err := m.ev.EvalBool(t)
			keep = err == nil && v
		}
		if keep {
			if n != i {
				l.stack[n] = *m
			}
			n++
		} else {
			l.free = append(l.free, m.ev)
		}
	}
	if n < len(l.stack) {
		l.stack = l.stack[:n]
	}
}

// Flush publishes locally created cache entries to the Shared store,
// converting them to the context-free form. Called at work handoff points
// by the parallel orchestrator; a no-op without an attached store.
func (l *Local) Flush() {
	if l.shared != nil && len(l.pending) > 0 {
		batch := make([]*sharedEntry, len(l.pending))
		for k, i := range l.pending {
			e := &l.entries[i]
			ss := l.slotsOf(e)
			if e.sat {
				ss = l.sortByHash(append(l.ssBuf[:0], ss...))
				l.ssBuf = ss
			}
			se := &sharedEntry{key: string(l.key(ss)), sat: e.sat}
			if e.sat {
				se.model = l.entryModel(i).Names(l.ctx)
			}
			batch[k] = se
		}
		l.shared.put(batch)
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
func (l *Local) CheckSibling(query *smt.Term) (solver.Result, VarModel) {
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
func (l *Local) CheckWitness(query *smt.Term) (solver.Result, VarModel) {
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
	res := l.CheckFinalModel(query)
	if res == solver.Sat {
		l.pushSolverModel(l.scratch)
	}
	return res
}

// CheckFinalModel is CheckModel for a path's last query (its test vector or
// witness): the solver's model is left to the caller but not captured or
// pushed, since the next BeginPath would drop it.
func (l *Local) CheckFinalModel(query *smt.Term) solver.Result {
	l.stats.ModelQueries++
	return l.sol.Check(l.withQuery(query)...)
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
func (l *Local) check(query *smt.Term, push bool) (solver.Result, VarModel, bool) {
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
			return solver.Sat, l.modelOf(&l.stack[i]), true
		}
	}

	// Stage 2: independence slicing.
	dropped := l.markSlice(pivot)
	pslot := l.slotOfTerm(pivot)
	l.probeSet(pslot, query != nil, dropped)

	// Stage 3: exact fingerprint lookup (local arena, then shared store).
	if i, ok := l.lookup(); ok {
		l.stats.ExactHits++
		if l.entries[i].store {
			l.stats.StoreHits++
		}
		return l.hitResult(i, dropped, push)
	}

	// Stage 4: superset-of-unsat. Any known-unsat subset proves this set
	// unsat.
	if i, ok := l.supersetUnsat(pslot); ok {
		l.stats.SupersetUnsat++
		if l.entries[i].store {
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
		ss := l.slotSet(slice)
		i := l.record(ss, true, l.captureModel(slice))
		return l.hitResult(i, dropped, push)
	case solver.Unsat:
		l.stats.CDCLUnsat++
		if len(core) > 0 && len(core) < len(slice) {
			// Record the unsat core rather than the whole set: every future
			// superset of the core — the same forced branch under different
			// unrelated constraints — is answered by the superset rule.
			l.record(l.fingerprint(core), false, nil)
		} else {
			l.record(l.fingerprint(slice), false, nil)
		}
		return solver.Unsat, nil, false
	}
	return solver.Unknown, nil, false
}

// hitResult converts a cache entry into a pipeline answer, merging sat
// models over the current stack to recover a full-set witness when possible.
func (l *Local) hitResult(i uint32, dropped int, push bool) (solver.Result, VarModel, bool) {
	if !l.entries[i].sat {
		return solver.Unsat, nil, false
	}
	merged, complete := l.mergeWithStack(l.entryModel(i), dropped == 0)
	if complete && push {
		l.push(merged)
	}
	return solver.Sat, merged, complete
}

// entryModel returns sat entry i's model, never nil.
func (l *Local) entryModel(i uint32) VarModel {
	e := &l.entries[i]
	return l.models.run(e.mb, e.mo, e.mn)
}

// slotsOf returns e's hash slots.
func (l *Local) slotsOf(e *entry) []uint32 { return l.slots.run(e.sb, e.so, e.n) }

// mergeWithStack overlays a slice model onto the newest stacked model. env
// must be restricted to and total over the slice's support (the invariant
// record and captureModel maintain): restricted, so overlaying cannot
// disturb the base's values outside the slice — the slice is a union of
// whole variable-sharing components, disjoint from the remaining
// constraints' variables; total, so the base cannot supply a value for a
// slice variable that env's validation read as zero. The result covers the
// entire constraint set when a base exists or when the slice was the whole
// set (sliceIsAll).
func (l *Local) mergeWithStack(env VarModel, sliceIsAll bool) (VarModel, bool) {
	n := len(l.stack)
	if n == 0 {
		return env, sliceIsAll
	}
	base := l.modelOf(&l.stack[n-1])
	out := l.mBuf[:0]
	i, j := 0, 0
	for i < len(base) && j < len(env) {
		switch a, b := base[i].id, env[j].id; {
		case a < b:
			out = append(out, base[i])
			i++
		case a > b:
			out = append(out, env[j])
			j++
		default:
			out = append(out, env[j])
			i++
			j++
		}
	}
	out = append(append(out, base[i:]...), env[j:]...)
	l.mBuf = out
	return l.keep(out), true
}

// keep copies a model into carved storage: stack models and the models
// handed out outlive the per-query buffers, and may outlive the path (as a
// sibling's seed). The result is never nil.
func (l *Local) keep(m VarModel) VarModel {
	n := len(m)
	if cap(l.chunk)-len(l.chunk) < n || l.chunk == nil {
		l.chunk = make([]binding, 0, max(chunkSize, n))
	}
	k := len(l.chunk)
	l.chunk = append(l.chunk, m...)
	return l.chunk[k : k+n : k+n]
}

// push adds a full-set model to the path stack, evicting the oldest
// non-seed model when full.
func (l *Local) push(m VarModel) {
	sm := stackModel{m: m, ev: l.evaluator(m, nil)}
	if len(l.stack) < maxStack {
		l.stack = append(l.stack, sm)
		return
	}
	i := 0
	if l.stack[0].seed {
		i = 1
	}
	l.free = append(l.free, l.stack[i].ev)
	copy(l.stack[i:], l.stack[i+1:])
	l.stack[len(l.stack)-1] = sm
}

// pushSolverModel captures the solver's current model over the support of
// the given constraints and pushes it as a full-set stack model.
func (l *Local) pushSolverModel(full []*smt.Term) {
	l.push(l.keep(l.captureModel(full)))
}

// captureModel reads the solver model restricted to — and total over — the
// support variables of the given constraints, into a reused buffer.
// Variables the solver never encoded read zero and are recorded explicitly,
// so the model stays a valid witness after mergeWithStack overlays it onto a
// stack base.
func (l *Local) captureModel(ts []*smt.Term) VarModel {
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
	slices.Sort(ids)
	l.idBuf = ids
	m := l.mBuf[:0]
	for _, id := range ids {
		v, _ := l.sol.VarValue(l.ctx.TermByID(id))
		m = append(m, binding{id, v})
	}
	l.mBuf = m
	return m
}

// record creates, indexes and schedules for publication a new cache entry,
// copying ss and model into the arena, and returns its index.
func (l *Local) record(ss []uint32, sat bool, model VarModel) uint32 {
	i := l.add(ss, sat, model, false)
	l.pending = append(l.pending, i)
	return i
}

// add appends an entry to the arena, under the set hash of ss. It shadows an
// older entry for the same set in exact lookups; unsat entries, whose slots
// must ascend by hash, join the superset index under each of their hashes,
// sat entries are reached by exact lookup only.
func (l *Local) add(ss []uint32, sat bool, model VarModel, store bool) uint32 {
	var sh uint64
	for _, s := range ss {
		sh += l.hashes[s-1]
	}
	i := uint32(len(l.entries))
	e := entry{n: uint32(len(ss)), next: l.exact[sh], sat: sat, store: store}
	e.sb, e.so = l.slots.add(ss)
	if sat {
		e.mb, e.mo = l.models.add(model)
		e.mn = uint32(len(model))
	}
	l.entries = append(l.entries, e)
	l.exact[sh] = i + 1
	if !sat {
		lo := l.hashes[ss[0]-1]
		for _, s := range ss {
			l.links = append(l.links, link{entry: i})
			k := uint32(len(l.links))
			p := &l.chains[s-1]
			for *p != 0 && l.smallest(l.links[*p-1].entry) <= lo {
				p = &l.links[*p-1].next
			}
			l.links[k-1].next, *p = *p, k
		}
	}
	return i
}

// lookup finds the entry for the probe's set in the arena, falling back to
// the shared store; shared finds are adopted into the arena (and indexed, so
// shared unsat entries join the local superset reasoning). Entries are found
// by the probe's set hash: one of pn slots, all in the probe's set, is the
// set itself.
func (l *Local) lookup() (uint32, bool) {
	if i, ok := l.localLookup(); ok || l.shared == nil {
		return i, ok
	}
	se := l.shared.get(l.psum, l.keyInProbe)
	if se == nil {
		return 0, false
	}
	var m VarModel
	if se.sat {
		m = varModel(l.ctx, se.model)
	}
	// keyInProbe left the key's slots, ascending by hash, in ssBuf.
	return l.add(l.ssBuf, se.sat, m, se.store), true
}

// localLookup is lookup in the arena alone.
func (l *Local) localLookup() (uint32, bool) {
	for k := l.exact[l.psum]; k != 0; k = l.entries[k-1].next {
		if e := &l.entries[k-1]; e.n == l.pn && l.allInProbe(l.slotsOf(e)) {
			return k - 1, true
		}
	}
	return 0, false
}

// keyInProbe reports whether a KeyOf key names the probe's set, leaving its
// slots in ssBuf when it does.
func (l *Local) keyInProbe(key string) bool {
	if len(key) != 8*int(l.pn) {
		return false
	}
	ss := l.ssBuf[:0]
	for i := range int(l.pn) {
		s, ok := l.slotOf[keyHash(key, i)]
		if !ok || !l.inProbe(s) {
			return false
		}
		ss = append(ss, s)
	}
	l.ssBuf = ss
	return true
}

// supersetUnsat returns a known-unsat subset entry of the probe's set. Only
// entries holding the pivot's hash (slot pslot) are candidates, which is
// exact: the engine keeps the path satisfiable, so every unsat subset of
// path ∪ {pivot} contains the pivot (were that broken, a pivot-free subset
// would cost a hit, never an answer). It returns the subset with the least
// smallest hash, earliest indexed on ties — the one an ascending scan over
// smallest-hash buckets finds — so StoreHits does not depend on the index.
// Chains are kept in that order, so this is the first subset on the chain.
func (l *Local) supersetUnsat(pslot uint32) (uint32, bool) {
	for k := l.chains[pslot-1]; k != 0; k = l.links[k-1].next {
		i := l.links[k-1].entry
		if e := &l.entries[i]; e.n <= l.pn && l.allInProbe(l.slotsOf(e)) {
			return i, true
		}
	}
	return 0, false
}

// smallest returns unsat entry i's smallest hash.
func (l *Local) smallest(i uint32) uint64 { return l.hashes[l.slotsOf(&l.entries[i])[0]-1] }

// allInProbe reports whether every slot of es is in the probe's set.
func (l *Local) allInProbe(es []uint32) bool {
	for _, s := range es {
		if !l.inProbe(s) {
			return false
		}
	}
	return true
}

// inProbe reports whether the probe's set holds slot s's hash: the pivot's
// extra slot, or a hash on the path whose component markSlice marked.
func (l *Local) inProbe(s uint32) bool {
	return s == l.pextra || l.slotN[s-1] != 0 && (l.pall || l.inSlice(l.slotKey[s-1]))
}

// slotOfTerm returns the slot of t's structural hash, memoized per term.
func (l *Local) slotOfTerm(t *smt.Term) uint32 {
	id := t.ID()
	if int(id) > len(l.termSlot) {
		l.termSlot = append(l.termSlot, make([]uint32, l.ctx.NumTerms()-len(l.termSlot))...)
	}
	if s := l.termSlot[id-1]; s != 0 {
		return s
	}
	s := l.slotFor(l.ctx.StructuralHash(t))
	l.termSlot[id-1] = s
	return s
}

// slotFor returns the slot of hash h, assigning the next one to a new hash.
func (l *Local) slotFor(h uint64) uint32 {
	if s, ok := l.slotOf[h]; ok {
		return s
	}
	l.hashes = append(l.hashes, h)
	l.chains = append(l.chains, 0)
	l.slotN = append(l.slotN, 0)
	l.slotKey = append(l.slotKey, 0)
	s := uint32(len(l.hashes))
	l.slotOf[h] = s
	return s
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
// the path, and returns the root: of two roots, the one with more
// constraints, which takes over the other's aggregates.
func (l *Local) join(keys []uint32) uint32 {
	if n := l.ctx.NumTerms(); int(keys[len(keys)-1]) > len(l.parent) {
		l.parent = append(l.parent, make([]uint32, n-len(l.parent))...)
		l.count = append(l.count, make([]uint32, n-len(l.count))...)
		l.nslots = append(l.nslots, make([]uint32, n-len(l.nslots))...)
		l.sum = append(l.sum, make([]uint64, n-len(l.sum))...)
	}
	var r uint32
	for _, v := range keys {
		if l.parent[v-1] == 0 {
			l.parent[v-1], l.count[v-1], l.nslots[v-1], l.sum[v-1] = v, 0, 0, 0
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
			l.nslots[r-1] += l.nslots[v-1]
			l.sum[r-1] += l.sum[v-1]
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
// the slice" started from the pivot. The probe's set starts as the marked
// components' hashes (pn, psum).
func (l *Local) markSlice(pivot *smt.Term) int {
	l.newEpoch()
	in := 0
	l.pn, l.psum = 0, 0
	for _, v := range l.keysOf(pivot) {
		if int(v) > len(l.parent) || l.parent[v-1] == 0 {
			continue // in no path constraint
		}
		if r := l.find(v); l.mark[r-1] != l.epoch {
			l.mark[r-1] = l.epoch
			in += int(l.count[r-1])
			l.pn += l.nslots[r-1]
			l.psum += l.sum[r-1]
		}
	}
	return len(l.path) - in
}

// probeSet completes the probe's set after markSlice: a query pivot (slot
// ps) whose hash is on no path constraint joins it. A pivot hash that is on
// the path belongs to the pivot's own term, in a marked component.
func (l *Local) probeSet(ps uint32, query bool, dropped int) {
	l.pall, l.pextra = dropped == 0, 0
	if query && l.slotN[ps-1] == 0 {
		l.pextra = ps
		l.pn++
		l.psum += l.hashes[ps-1]
	}
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

// slotSet returns the distinct slots of ts's structural hashes, in order of
// first occurrence. The result aliases a reused buffer.
func (l *Local) slotSet(ts []*smt.Term) []uint32 {
	l.hepoch++
	if l.hepoch == 0 {
		clear(l.hmark)
		l.hepoch = 1
	}
	ss := l.ssBuf[:0]
	for _, t := range ts {
		s := l.slotOfTerm(t)
		if int(s) > len(l.hmark) {
			l.hmark = append(l.hmark, make([]uint32, len(l.hashes)-len(l.hmark))...)
		}
		if l.hmark[s-1] != l.hepoch {
			l.hmark[s-1] = l.hepoch
			ss = append(ss, s)
		}
	}
	l.ssBuf = ss
	return ss
}

// sortByHash sorts slots ascending by their hashes, in place.
func (l *Local) sortByHash(ss []uint32) []uint32 {
	slices.SortFunc(ss, func(a, b uint32) int { return cmp.Compare(l.hashes[a-1], l.hashes[b-1]) })
	return ss
}

// fingerprint returns the canonical fingerprint of a constraint set: the
// slots of its members' context-independent structural hashes, ascending by
// hash, deduplicated so a twice-asserted condition keys the same set as a
// once-asserted one (collisions between distinct terms are astronomically
// unlikely and harmless to keep once). Identical sets built in different
// contexts (or discovered in different orders) have the same hashes, hence
// the same KeyOf. It sorts, so the pipeline uses it only to record unsat
// entries. The result aliases a reused buffer.
func (l *Local) fingerprint(ts []*smt.Term) []uint32 {
	return l.sortByHash(l.slotSet(ts))
}

// key writes KeyOf of ss's hashes into the reused key buffer.
func (l *Local) key(ss []uint32) []byte {
	if cap(l.keyBuf) < 8*len(ss) {
		l.keyBuf = make([]byte, 8*len(ss))
	}
	buf := l.keyBuf[:8*len(ss)]
	for i, s := range ss {
		binary.BigEndian.PutUint64(buf[i*8:], l.hashes[s-1])
	}
	return buf
}

// newEpoch starts a fresh marking of the mark tables, first growing the
// term mark over every term interned so far.
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
