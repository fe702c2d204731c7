// Package obs is the zero-dependency observability layer: hierarchical
// wall-time spans, a typed counter/gauge registry, and pluggable sinks
// (a JSONL trace writer, an aggregated per-phase table, pprof goroutine
// labels). It absorbs the scattered telemetry counters of the solver
// facade, the query cache and the walkers behind one snapshot interface.
//
// # Enable/disable contract
//
// A nil *Recorder is the disabled state. Every method on Recorder, Handle
// and Span is nil-safe, so instrumentation sites pay exactly one pointer
// check (plus an open-coded defer) when observability is off:
//
//	defer h.Start(obs.PhaseSolverCheck).End()
//
// Observability is side-channel only: it never feeds back into exploration
// decisions, so reports stay byte-identical with tracing on and off.
//
// # Concurrency contract
//
// A Recorder is shared and internally synchronized. A Handle is the
// per-goroutine (per-worker) shard: span starts/ends and counter bumps on
// a Handle are unsynchronized single-owner operations, mirroring how each
// parexplore worker owns a private querycache.Local. Handle.Flush merges
// the shard into the Recorder under one mutex and is called at the same
// hand-off points where the query cache publishes (work donation, idle,
// exploration end). Span-close trace events are written to the sink as
// they happen, under the sink mutex.
package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names used by the engine instrumentation. Spans nest as
// explore → path → {solver-check, cache-probe, rtl-step, iss-step,
// voter-compare}; cache-probe additionally nests solver-check when the
// elimination pipeline falls through to the CDCL core.
const (
	PhaseExplore      = "explore"
	PhasePath         = "path"
	PhaseSolverCheck  = "solver-check"
	PhaseCacheProbe   = "cache-probe"
	PhaseRTLStep      = "rtl-step"
	PhaseISSStep      = "iss-step"
	PhaseVoterCompare = "voter-compare"
)

// Options configures a Recorder.
type Options struct {
	// Trace, when non-nil, receives the JSONL event stream (one event per
	// span close, plus header/counter/end events). Writes are buffered;
	// Close flushes.
	Trace io.Writer
	// Label tags the trace header (conventionally the symv subcommand).
	Label string
}

// PhaseStat aggregates the spans of one phase name.
type PhaseStat struct {
	Count uint64
	Nanos uint64
}

// Snapshot is a point-in-time copy of the merged registry. Only flushed
// handle shards are visible; live per-worker deltas are not.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]uint64
	Phases   map[string]PhaseStat
	Elapsed  time.Duration
	Spans    uint64
}

// Recorder is the shared root of the observability layer. The zero state
// for "disabled" is a nil pointer, not a zero-value struct.
type Recorder struct {
	start time.Time
	label string

	nextID atomic.Uint64 // span ids; 0 is "no parent"
	spans  atomic.Uint64 // closed-span count

	mu       sync.Mutex // guards counters/gauges/phases and sink writes
	counters map[string]uint64
	gauges   map[string]uint64
	phases   map[string]PhaseStat
	sink     *jsonlWriter
	closed   bool
}

// New builds an enabled Recorder and, when o.Trace is set, writes the
// trace header event.
func New(o Options) *Recorder {
	r := &Recorder{
		start:    time.Now(),
		label:    o.Label,
		counters: make(map[string]uint64),
		gauges:   make(map[string]uint64),
		phases:   make(map[string]PhaseStat),
	}
	if o.Trace != nil {
		r.sink = newJSONLWriter(o.Trace)
		r.sink.header(o.Label)
	}
	return r
}

// NewHandle returns the single-goroutine shard for one worker. Worker 0 is
// the orchestrator / sequential explorer; parallel workers use 1..N.
func (r *Recorder) NewHandle(worker int) *Handle {
	if r == nil {
		return nil
	}
	return &Handle{
		r:        r,
		worker:   worker,
		counters: make(map[string]uint64),
		gauges:   make(map[string]uint64),
		phases:   make(map[string]PhaseStat),
	}
}

// Snapshot copies the merged registry. Safe to call concurrently with
// handle flushes; returns a zero Snapshot on a nil recorder.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]uint64, len(r.gauges)),
		Phases:   make(map[string]PhaseStat, len(r.phases)),
		Elapsed:  time.Since(r.start),
		Spans:    r.spans.Load(),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, v := range r.phases {
		s.Phases[k] = v
	}
	return s
}

// Close writes the merged counters/gauges and the end event to the trace
// sink (if any) and flushes it. Handles must be flushed first; Close is
// idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.sink == nil {
		return nil
	}
	for _, k := range sortedKeys(r.counters) {
		r.sink.counter("counter", k, r.counters[k])
	}
	for _, k := range sortedKeys(r.gauges) {
		r.sink.counter("gauge", k, r.gauges[k])
	}
	r.sink.end(uint64(time.Since(r.start)), r.spans.Load())
	return r.sink.flush()
}

// Handle is a per-goroutine view of the Recorder: a current-span stack and
// local counter/phase shards. It must not be shared between goroutines;
// hand it off only at quiescent points (like the owning worker's queue
// hand-off), after Flush.
type Handle struct {
	r      *Recorder
	worker int
	cur    *Span  // innermost open span
	baseID uint64 // parent id for this handle's top-level spans

	counters map[string]uint64
	gauges   map[string]uint64
	phases   map[string]PhaseStat
}

// SetBase makes s the parent of this handle's top-level spans, stitching a
// worker's path spans under the orchestrator's explore root. Cross-handle
// parenting is by id only: child rollups stay within the owning handle.
func (h *Handle) SetBase(s *Span) {
	if h == nil {
		return
	}
	if s != nil {
		h.baseID = s.id
	}
}

// Start opens a span named after a phase and pushes it on the handle's
// stack; spans started before End nest under it (including across package
// boundaries: a solver-check opened inside a cache probe becomes the
// probe's child automatically).
func (h *Handle) Start(name string) *Span {
	if h == nil {
		return nil
	}
	s := &Span{
		h:      h,
		prev:   h.cur,
		id:     h.r.nextID.Add(1),
		name:   name,
		t0:     time.Since(h.r.start),
		pathID: -1,
	}
	h.cur = s
	return s
}

// Add bumps a named counter on the local shard.
func (h *Handle) Add(name string, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.counters[name] += n
}

// Gauge records a level value on the local shard. Gauges merge by maximum
// (they report sizes — term count, SAT variables — where the high-water
// mark across workers is the interesting number).
func (h *Handle) Gauge(name string, v uint64) {
	if h == nil {
		return
	}
	if v > h.gauges[name] {
		h.gauges[name] = v
	}
}

// Flush merges the local counter/gauge/phase shards into the Recorder and
// clears them. Call at hand-off points and at the end of exploration;
// open spans are unaffected.
func (h *Handle) Flush() {
	if h == nil {
		return
	}
	r := h.r
	r.mu.Lock()
	for k, v := range h.counters {
		r.counters[k] += v
	}
	for k, v := range h.gauges {
		if v > r.gauges[k] {
			r.gauges[k] = v
		}
	}
	for k, v := range h.phases {
		p := r.phases[k]
		p.Count += v.Count
		p.Nanos += v.Nanos
		r.phases[k] = p
	}
	r.mu.Unlock()
	clear(h.counters)
	clear(h.gauges)
	clear(h.phases)
}

// kid is a child-phase rollup accumulated on an open span.
type kid struct {
	name string
	n    uint64
	ns   uint64
}

// Span is one timed region. Spans are created by Handle.Start and closed
// exactly once by End; they are owned by the handle's goroutine.
type Span struct {
	h      *Handle
	prev   *Span
	id     uint64
	name   string
	t0     time.Duration
	pathID int64
	kids   []kid // child rollups, few distinct names; linear scan
}

// SetPath tags the span with a deterministic path index (walker order).
func (s *Span) SetPath(idx int) {
	if s == nil {
		return
	}
	s.pathID = int64(idx)
}

// End closes the span: computes its duration, rolls it up into the parent
// span (same handle) and the handle's per-phase shard, and emits one JSONL
// event when tracing is on.
func (s *Span) End() {
	if s == nil {
		return
	}
	h := s.h
	r := h.r
	dur := time.Since(r.start) - s.t0
	if h.cur == s {
		h.cur = s.prev
	}
	if s.prev != nil {
		s.prev.addKid(s.name, uint64(dur))
	}
	p := h.phases[s.name]
	p.Count++
	p.Nanos += uint64(dur)
	h.phases[s.name] = p
	r.spans.Add(1)
	if r.sink == nil {
		return
	}
	par := s.baseParent()
	sort.Slice(s.kids, func(i, j int) bool { return s.kids[i].name < s.kids[j].name })
	r.mu.Lock()
	r.sink.span(s.id, par, h.worker, s.name, s.pathID, uint64(s.t0), uint64(dur), s.kids)
	r.mu.Unlock()
}

func (s *Span) baseParent() uint64 {
	if s.prev != nil {
		return s.prev.id
	}
	return s.h.baseID
}

func (s *Span) addKid(name string, ns uint64) {
	for i := range s.kids {
		if s.kids[i].name == name {
			s.kids[i].n++
			s.kids[i].ns += ns
			return
		}
	}
	s.kids = append(s.kids, kid{name: name, n: 1, ns: ns})
}

func sortedKeys(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
