package qstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"symriscv/internal/querycache"
)

func entry(sat bool, model querycache.Model, hs ...uint64) querycache.PortableEntry {
	return querycache.PortableEntry{Key: querycache.KeyOf(hs), Hashes: hs, Sat: sat, Model: model}
}

func testEntries() []querycache.PortableEntry {
	return []querycache.PortableEntry{
		entry(true, querycache.Model{"rs1": 0xdeadbeef, "rs2": 7}, 10, 20, 30),
		entry(false, nil, 11, 21),
		entry(true, querycache.Model{}, 5),
		entry(false, nil, 99, 100, 101, 102),
	}
}

func TestVersionKeyIncludesSchema(t *testing.T) {
	k := VersionKey("core=shipped", "faults=E1")
	want := "cache-schema=2;core=shipped;faults=E1"
	if querycache.SchemaVersion == 2 && k != want {
		t.Fatalf("VersionKey = %q, want %q", k, want)
	}
}

func TestPersistLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := VersionKey("core=a")
	es := testEntries()
	name, err := s.Persist(key, es)
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("expected a segment name")
	}
	// Identical content republished converges on the same file.
	name2, err := s.Persist(key, es)
	if err != nil {
		t.Fatal(err)
	}
	if name2 != name {
		t.Fatalf("republish produced %q, want %q", name2, name)
	}
	got, ls, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Segments != 1 || ls.CorruptRecords != 0 || ls.CorruptSegments != 0 {
		t.Fatalf("load stats %+v", ls)
	}
	if len(got) != len(es) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(es))
	}
	byKey := map[string]querycache.PortableEntry{}
	for _, pe := range got {
		byKey[pe.Key] = pe
	}
	for _, want := range es {
		g, ok := byKey[want.Key]
		if !ok {
			t.Fatalf("entry %x missing after roundtrip", want.Hashes)
		}
		if g.Sat != want.Sat || !reflect.DeepEqual(g.Hashes, want.Hashes) {
			t.Fatalf("entry mismatch: got %+v want %+v", g, want)
		}
		if want.Sat && len(want.Model) > 0 && !reflect.DeepEqual(g.Model, want.Model) {
			t.Fatalf("model mismatch: got %v want %v", g.Model, want.Model)
		}
	}
}

func TestLoadFiltersVersionKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(VersionKey("core=a"), testEntries()[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(VersionKey("core=b"), testEntries()[2:]); err != nil {
		t.Fatal(err)
	}
	got, ls, err := s.Load(VersionKey("core=a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || ls.Segments != 1 || ls.OtherSegments != 1 {
		t.Fatalf("got %d entries, stats %+v", len(got), ls)
	}
	for _, pe := range got {
		if pe.Key != querycache.KeyOf([]uint64{10, 20, 30}) && pe.Key != querycache.KeyOf([]uint64{11, 21}) {
			t.Fatalf("entry %x leaked from the wrong key", pe.Hashes)
		}
	}
}

// corruptSegment flips one byte inside the first record's payload.
func corruptSegment(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic(8) + keyLen(4) + key; then recLen(4)+crc(4)+payload.
	keyLen := int(uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11]))
	off := 8 + 4 + keyLen + 8 // first payload byte
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func segPath(t *testing.T, dir string) string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(m) == 0 {
		t.Fatalf("no segment found: %v", err)
	}
	return m[0]
}

func TestCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := VersionKey("core=a")
	es := testEntries()
	if _, err := s.Persist(key, es); err != nil {
		t.Fatal(err)
	}
	corruptSegment(t, segPath(t, dir))
	got, ls, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if ls.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1 (stats %+v)", ls.CorruptRecords, ls)
	}
	if len(got) != len(es)-1 {
		t.Fatalf("loaded %d entries, want %d", len(got), len(es)-1)
	}
}

func TestTruncatedTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := VersionKey("core=a")
	if _, err := s.Persist(key, testEntries()); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got, ls, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if ls.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", ls.CorruptRecords)
	}
	if len(got) != len(testEntries())-1 {
		t.Fatalf("loaded %d entries, want %d", len(got), len(testEntries())-1)
	}
}

func TestBadHeaderSkipsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-junk"+segSuffix), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ls, err := s.Load(VersionKey("core=a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || ls.CorruptSegments != 1 {
		t.Fatalf("got %d entries, stats %+v", len(got), ls)
	}
}

func TestSessionWarmLoadAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	key := VersionKey("core=a")

	// First session: starts cold, creates entries, checkpoints.
	s1, err := OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if n := s1.Stats().Loaded; n != 0 {
		t.Fatalf("cold session loaded %d entries", n)
	}
	if n := s1.Shared().Import(testEntries()); n != len(testEntries()) {
		t.Fatalf("imported %d, want %d", n, len(testEntries()))
	}
	s1.Checkpoint()
	s1.Checkpoint() // idempotent: nothing new since last checkpoint
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	st := s1.Stats()
	if st.Persisted != len(testEntries()) || st.Segments != 1 {
		t.Fatalf("session stats %+v", st)
	}

	// Second session: warm.
	s2, err := OpenSession(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.Loaded != len(testEntries()) || st2.LoadedSegments != 1 {
		t.Fatalf("warm session stats %+v", st2)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Persisted != 0 {
		t.Fatalf("warm session persisted %d entries with nothing new", st.Persisted)
	}

	// A different version key sees nothing.
	s3, err := OpenSession(dir, VersionKey("core=b"))
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Loaded != 0 || st.OtherSegments != 1 {
		t.Fatalf("cross-key session stats %+v", st)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentCheckpoints checkpoints one session from several
// goroutines. In the first leg each import into the Shared store is
// followed by a checkpoint, so the Shared store's own lock orders most of
// them. In the second every round's entries are imported first, and then
// the goroutines call Checkpoint at once behind a start barrier, with no
// Shared operation between them: only the session's lock keeps them from
// reading and writing its bookkeeping together (go test -race catches its
// removal) and from persisting the same entries twice.
func TestSessionConcurrentCheckpoints(t *testing.T) {
	key := VersionKey("core=a")
	open := func() (*Session, string) {
		dir := t.TempDir()
		s, err := OpenSession(dir, key)
		if err != nil {
			t.Fatal(err)
		}
		return s, dir
	}
	closeAndLoad := func(s *Session, dir string, want int) {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got, _, err := (&Store{dir: dir}).Load(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("loaded %d entries, want %d", len(got), want)
		}
	}

	s, dir := open()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				h := uint64(w*1000 + i + 1)
				s.Shared().Import([]querycache.PortableEntry{entry(false, nil, h, h+10000)})
				s.Checkpoint()
			}
		}(w)
	}
	wg.Wait()
	closeAndLoad(s, dir, 64)

	const rounds, workers, perRound = 8, 8, 16
	s, dir = open()
	for r := 0; r < rounds; r++ {
		batch := make([]querycache.PortableEntry, perRound)
		for i := range batch {
			h := uint64(r*1000 + i + 1)
			batch[i] = entry(false, nil, h, h+10000)
		}
		s.Shared().Import(batch)
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				s.Checkpoint()
			}()
		}
		close(start)
		wg.Wait()
	}
	if st := s.Stats(); st.Persisted != rounds*perRound || st.Segments != rounds {
		t.Fatalf("concurrent checkpoints persisted %d entries in %d segments, want %d in %d",
			st.Persisted, st.Segments, rounds*perRound, rounds)
	}
	closeAndLoad(s, dir, rounds*perRound)
}

func TestStatsAndVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := VersionKey("core=a"), VersionKey("core=b")
	if _, err := s.Persist(keyA, testEntries()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Persist(keyB, testEntries()[:1]); err != nil {
		t.Fatal(err)
	}
	st, issues, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("clean store reported issues: %+v", issues)
	}
	if st.Segments != 2 || len(st.Keys) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Keys[0].Key != keyA || st.Keys[1].Key != keyB {
		t.Fatalf("keys not sorted: %+v", st.Keys)
	}
	if st.Keys[0].Entries != 4 || st.Keys[0].Sat != 2 || st.Keys[0].Unsat != 2 || st.Keys[0].Distinct != 4 {
		t.Fatalf("keyA stats %+v", st.Keys[0])
	}

	corruptSegment(t, segPath(t, dir))
	_, issues, err = s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || issues[0].Kind != "corrupt-records" {
		t.Fatalf("issues after corruption: %+v", issues)
	}
}

func TestGCCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := VersionKey("core=a")
	es := testEntries()
	// Three overlapping segments: es[0:2], es[1:3], es[2:4] → 6 records, 4 distinct.
	for i := 0; i+2 <= len(es); i++ {
		if _, err := s.Persist(key, es[i:i+2]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsBefore != 3 || res.SegmentsAfter != 1 {
		t.Fatalf("gc result %+v", res)
	}
	if res.EntriesBefore != 6 || res.EntriesAfter != 4 || res.DroppedDuplicates != 2 {
		t.Fatalf("gc result %+v", res)
	}
	got, ls, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || ls.Segments != 1 {
		t.Fatalf("post-gc load: %d entries, stats %+v", len(got), ls)
	}
	// GC drops damaged records for good.
	corruptSegment(t, segPath(t, dir))
	res, err = s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedCorrupt != 1 || res.EntriesAfter != 3 {
		t.Fatalf("gc after corruption: %+v", res)
	}
	if _, ls, _ := s.Load(key); ls.CorruptRecords != 0 {
		t.Fatalf("corruption survived gc: %+v", ls)
	}
}

func TestDistillDeterministicCover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := VersionKey("core=a")
	es := []querycache.PortableEntry{
		entry(true, querycache.Model{"a": 1}, 1, 2, 3),     // covers 3
		entry(true, querycache.Model{"b": 2}, 2, 3),        // subset of the first: redundant
		entry(true, querycache.Model{"c": 3}, 4, 5),        // covers 2 more
		entry(false, nil, 6, 7, 8, 9),                      // unsat: not a witness
		entry(true, querycache.Model{"d": 4, "rs1": 9}, 5), // subset: redundant
	}
	if _, err := s.Persist(key, es); err != nil {
		t.Fatal(err)
	}
	run := func() []DistillResult {
		out, err := s.Distill(key)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	if len(first) != 1 {
		t.Fatalf("distilled %d keys, want 1", len(first))
	}
	r := first[0]
	if r.Witnesses != 4 || r.Universe != 5 {
		t.Fatalf("distill result %+v", r)
	}
	if len(r.Vectors) != 2 {
		t.Fatalf("cover has %d vectors, want 2: %+v", len(r.Vectors), r.Vectors)
	}
	if r.Vectors[0].Covers != 3 || r.Vectors[1].Covers != 2 {
		t.Fatalf("cover gains %d,%d want 3,2", r.Vectors[0].Covers, r.Vectors[1].Covers)
	}
	for i := 0; i < 5; i++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("distill not deterministic:\n%+v\nvs\n%+v", again, first)
		}
	}
	if got := (DistilledVector{Inputs: map[string]uint64{"rs2": 7, "rs1": 0xde}}).ReplayArgs(); got != "rs1=0xde rs2=0x7" {
		t.Fatalf("ReplayArgs = %q", got)
	}
}

func TestSegmentEncodingDeterministic(t *testing.T) {
	key := VersionKey("core=a")
	a := encodeSegment(key, testEntries())
	b := encodeSegment(key, testEntries())
	if !bytes.Equal(a, b) {
		t.Fatal("encodeSegment is not deterministic")
	}
}
