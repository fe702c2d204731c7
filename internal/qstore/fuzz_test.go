package qstore

import (
	"bytes"
	"testing"

	"symriscv/internal/querycache"
)

// FuzzReadSegment feeds arbitrary bytes to the segment reader and the record
// decoder. Damage must come back as an error or a corrupt-record count,
// never a panic, and every entry the reader accepts must satisfy the
// invariants Import relies on. Seeded with encodeSegment output, whole and
// damaged.
func FuzzReadSegment(f *testing.F) {
	key := VersionKey("core=fuzz")
	seg := encodeSegment(key, testEntries())
	f.Add(seg)
	f.Add(seg[:len(seg)-7])
	f.Add(encodeSegment(key, nil))
	flipped := bytes.Clone(seg)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, records, corrupt, err := readSegment(bytes.NewReader(b), "", func(pe querycache.PortableEntry) {
			for i := 1; i < len(pe.Hashes); i++ {
				if pe.Hashes[i] <= pe.Hashes[i-1] {
					t.Fatalf("accepted entry with unsorted hashes %v", pe.Hashes)
				}
			}
			if pe.Key != querycache.KeyOf(pe.Hashes) {
				t.Fatal("accepted entry whose key is not KeyOf(hashes)")
			}
			if pe.Sat && pe.Model == nil {
				t.Fatal("accepted sat entry without a model")
			}
		})
		if err != nil && records+corrupt != 0 {
			t.Fatalf("header error %v after %d records, %d corrupt", err, records, corrupt)
		}
		// The decoder also sees the raw bytes as one record payload.
		_, _ = decodeEntry(b)
	})
}
