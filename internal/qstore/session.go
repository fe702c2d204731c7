package qstore

import (
	"fmt"
	"sync"

	"symriscv/internal/obs"
	"symriscv/internal/querycache"
)

// Registry names for the store counters published into internal/obs.
const (
	CtrLoaded          = "store.loaded"
	CtrPersisted       = "store.persisted"
	CtrSegments        = "store.segments"
	CtrCorruptRecords  = "store.corrupt_records"
	CtrCorruptSegments = "store.corrupt_segments"
)

// Session binds one campaign to the store: it loads the version key's
// persisted entries into a querycache.Shared at open, and persists the
// entries the campaign creates back to disk at checkpoint boundaries — the
// same hand-off points where workers flush into the Shared store.
//
// A Session is safe for concurrent use (parallel table cells checkpoint
// from their own goroutines). Persist failures are recorded, not raised:
// losing a checkpoint degrades the next campaign's warm-up, never this
// campaign's results.
type Session struct {
	store  *Store
	key    string
	shared *querycache.Shared

	mu        sync.Mutex
	seen      map[string]struct{} // entry keys already on disk (loaded or persisted)
	load      LoadStats
	persisted int
	segments  int
	err       error // first persist failure, surfaced by Close
}

// OpenSession opens (creating if needed) the store at dir and loads every
// entry persisted under the version key into a fresh querycache.Shared.
// Corrupt segments and records degrade the load (counted in Stats), they do
// not fail it; the returned error means the directory itself is unusable,
// in which case callers should warn and run cold.
func OpenSession(dir, key string) (*Session, error) {
	store, err := Open(dir)
	if err != nil {
		return nil, err
	}
	es, ls, err := store.Load(key)
	if err != nil {
		return nil, err
	}
	shared := querycache.NewShared()
	imported := shared.Import(es)
	seen := make(map[string]struct{}, len(es))
	for _, pe := range es {
		seen[pe.Key] = struct{}{}
	}
	ls.Entries = imported
	return &Session{store: store, key: key, shared: shared, seen: seen, load: ls}, nil
}

// Shared returns the store-backed cross-worker cache. Every exploration of
// the campaign attaches to this one instance, so entries flow between
// explorations in-process and to disk at checkpoints.
func (s *Session) Shared() *querycache.Shared { return s.shared }

// Checkpoint persists every entry the campaign has created since the last
// checkpoint as one new segment. Called at exploration hand-off boundaries
// (after each exploration merges, alongside the final Explorer.Flush). Failures
// are recorded and surfaced by Close; the campaign itself never fails on a
// persist error.
func (s *Session) Checkpoint() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := s.shared.Snapshot(s.seen)
	if len(fresh) == 0 {
		return
	}
	if _, err := s.store.Persist(s.key, fresh); err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	for _, pe := range fresh {
		s.seen[pe.Key] = struct{}{}
	}
	s.persisted += len(fresh)
	s.segments++
}

// Close takes a final checkpoint and returns the first persist error of the
// session, if any. The session remains usable for Stats afterwards.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.Checkpoint()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// SessionStats is the session's telemetry: what the load found (and
// skipped) and what the campaign persisted.
type SessionStats struct {
	Loaded          int // entries loaded into the shared cache at open
	LoadedSegments  int // segments the load decoded
	OtherSegments   int // segments under other version keys, skipped
	CorruptSegments int // unreadable segments, skipped
	CorruptRecords  int // damaged/truncated records, skipped
	Persisted       int // new entries written this session
	Segments        int // segments written this session
}

// Stats returns the session counters.
func (s *Session) Stats() SessionStats {
	if s == nil {
		return SessionStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Loaded:          s.load.Entries,
		LoadedSegments:  s.load.Segments,
		OtherSegments:   s.load.OtherSegments,
		CorruptSegments: s.load.CorruptSegments,
		CorruptRecords:  s.load.CorruptRecords,
		Persisted:       s.persisted,
		Segments:        s.segments,
	}
}

// Summary renders the one-line stderr digest the CLI prints after a
// campaign ran with -store.
func (st SessionStats) Summary() string {
	msg := fmt.Sprintf("store: loaded %d entries from %d segment(s), persisted %d new in %d segment(s)",
		st.Loaded, st.LoadedSegments, st.Persisted, st.Segments)
	if st.CorruptRecords > 0 || st.CorruptSegments > 0 {
		msg += fmt.Sprintf(" [skipped %d corrupt record(s), %d corrupt segment(s)]",
			st.CorruptRecords, st.CorruptSegments)
	}
	return msg
}

// PublishObs absorbs the session counters into the observability registry
// (worker 0, the orchestrator's shard). Call once, after the campaign.
func (s *Session) PublishObs(r *obs.Recorder) {
	if s == nil || r == nil {
		return
	}
	st := s.Stats()
	h := r.NewHandle(0)
	h.Add(CtrLoaded, uint64(st.Loaded))
	h.Add(CtrPersisted, uint64(st.Persisted))
	h.Add(CtrSegments, uint64(st.LoadedSegments+st.Segments))
	h.Add(CtrCorruptRecords, uint64(st.CorruptRecords))
	h.Add(CtrCorruptSegments, uint64(st.CorruptSegments))
	h.Flush()
}
