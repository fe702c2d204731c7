// Package qstore is the persistent cross-campaign witness store: it
// promotes the query-elimination layer's cache entries (sat models
// restricted to their slice's support, unsat answers, structural-hash
// fingerprints — context-independent by design, see internal/querycache) to
// a disk-backed, content-addressed store shared across processes and
// campaigns.
//
// # Layout and robustness
//
// A store is a directory of immutable segment files (see segment.go for the
// record format) plus a LOCK file. Writers publish a segment by writing a
// temp file, fsyncing and renaming it to its content-derived name, under an
// exclusive flock on LOCK — so there is exactly one writer at a time, a
// crash mid-write leaves only a temp file (ignored by readers and removed
// by GC), and two checkpoints of the same entry set converge on the same
// file. Readers take no lock at all: segments are immutable and appear
// atomically, and a segment GC'd away mid-scan is simply skipped.
//
// Damage is never fatal. Every record carries a CRC; a failed checksum
// skips that record, a truncated tail ends that segment, an unreadable
// header skips that segment — each counted and surfaced (store.corrupt_*
// counters, symv cache stats), with the run degrading toward cold-cache
// behaviour rather than failing.
//
// # Version keys
//
// Every segment header names the version key it was written under —
// composed from the cache schema version (querycache.SchemaVersion) and the
// campaign's compatibility surface (DUT config, fault set, workload shape;
// see VersionKey). Load filters on exact key match, so entries can never
// leak between incompatible runs: they are not even decoded.
package qstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"symriscv/internal/querycache"
)

// VersionKey composes a store compatibility key from the cache schema
// version and the caller's campaign descriptors (DUT config, fault set,
// workload shape). Descriptors are joined verbatim; callers pass stable
// strings like "core=shipped", "faults=E1,E5,E6", "limit=1".
func VersionKey(parts ...string) string {
	return fmt.Sprintf("cache-schema=%d;%s", querycache.SchemaVersion, strings.Join(parts, ";"))
}

// Store is a handle on one store directory. All methods are safe for
// concurrent use; cross-process mutual exclusion for writers comes from the
// LOCK file.
type Store struct {
	dir string
}

// Open returns a store over dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// LoadStats describes one Load's outcome, including the damage it skipped.
type LoadStats struct {
	Segments        int // segments with the requested key, decoded
	OtherSegments   int // segments under a different version key (not decoded)
	CorruptSegments int // unreadable magic/header/open failure
	CorruptRecords  int // CRC-failed, undecodable or truncated records
	Entries         int // valid entries returned
}

// Load reads every segment written under the given version key and returns
// its valid entries (first occurrence wins on duplicate entry keys).
// Corruption is counted, never fatal; the only error is failing to list the
// directory itself.
func (s *Store) Load(key string) ([]querycache.PortableEntry, LoadStats, error) {
	var ls LoadStats
	segs, err := s.segments()
	if err != nil {
		return nil, ls, err
	}
	var out []querycache.PortableEntry
	seen := make(map[string]struct{})
	for _, name := range segs {
		f, err := os.Open(filepath.Join(s.dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // GC'd between list and open
			}
			ls.CorruptSegments++
			continue
		}
		segKey, _, corrupt, err := readSegment(f, key, func(pe querycache.PortableEntry) {
			if _, dup := seen[pe.Key]; dup {
				return
			}
			seen[pe.Key] = struct{}{}
			out = append(out, pe)
		})
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		switch {
		case err != nil:
			ls.CorruptSegments++
		case segKey != key:
			ls.OtherSegments++
		default:
			ls.Segments++
			ls.CorruptRecords += corrupt
		}
	}
	ls.Entries = len(out)
	return out, ls, nil
}

// segments lists the store's segment files, sorted by name for
// deterministic processing order.
func (s *Store) segments() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("qstore: %w", err)
	}
	var out []string
	for _, de := range des {
		if de.Type().IsRegular() && strings.HasSuffix(de.Name(), segSuffix) {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Persist atomically publishes a new segment holding the given entries
// under the version key. Entries should be in deterministic order (Snapshot
// order) so identical entry sets produce identical segments. Returns the
// published file name; an empty entry set publishes nothing.
func (s *Store) Persist(key string, es []querycache.PortableEntry) (string, error) {
	if len(es) == 0 {
		return "", nil
	}
	lock, err := s.lock()
	if err != nil {
		return "", err
	}
	defer lock.unlock()
	return s.persistLocked(key, es)
}

// persistLocked is Persist's body for callers already holding the write lock.
func (s *Store) persistLocked(key string, es []querycache.PortableEntry) (string, error) {
	buf := encodeSegment(key, es)
	sum := sha256.Sum256(buf)
	name := fmt.Sprintf("seg-%x%s", sum[:12], segSuffix)
	final := filepath.Join(s.dir, name)
	if _, err := os.Stat(final); err == nil {
		return name, nil // identical content already published
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-seg-*")
	if err != nil {
		return "", fmt.Errorf("qstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("qstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("qstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("qstore: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("qstore: %w", err)
	}
	return name, nil
}

// dirLock is the store's single-writer exclusion: an exclusive flock on the
// LOCK file. Readers never take it — segments are immutable and appear
// atomically — so concurrent readers are always allowed.
type dirLock struct {
	f *os.File
}

// lock blocks until the exclusive write lock is held.
func (s *Store) lock() (*dirLock, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("qstore: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("qstore: flock: %w", err)
	}
	return &dirLock{f: f}, nil
}

// unlock releases the write lock.
func (l *dirLock) unlock() {
	// Closing the descriptor drops the flock; an explicit unlock first makes
	// the intent visible and surfaces EBADF-style bugs in tests.
	if err := syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN); err != nil {
		l.f.Close()
		return
	}
	if err := l.f.Close(); err != nil {
		return
	}
}
