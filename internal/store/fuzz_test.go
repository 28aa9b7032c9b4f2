package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzUploadsRecover writes arbitrary .session bytes beside an arbitrary
// .part spool and opens the spool directory. Recovery must never panic
// and must register the session exactly when the sidecar names its id,
// gives a non-negative offset no larger than the spool and the SHA-256
// of that prefix; the spool is then cut to the offset. Otherwise both
// files move to quarantine/ unchanged.
func FuzzUploadsRecover(f *testing.F) {
	const id = "00112233445566ff"
	sidecar := func(id string, off int64, prefix []byte) []byte {
		sum := sha256.Sum256(prefix)
		b, err := json.Marshal(uploadMeta{ID: id, Offset: off, SHA256: hex.EncodeToString(sum[:])})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	spool := []byte("CLTR\x01\x05\x02\x02\x02\x02\x02")
	f.Add(sidecar(id, 6, spool[:6]), spool)                         // a durable prefix and a torn tail
	f.Add(sidecar(id, int64(len(spool)), spool), spool)             // the whole spool
	f.Add(sidecar(id, 0, nil), []byte{})                            // a fresh session
	f.Add(sidecar(id, 6, []byte("CLTR\x01\x06")), spool)            // wrong checksum
	f.Add(sidecar(id, int64(len(spool))+1, spool), spool)           // past the spool
	f.Add(sidecar(id, -1, nil), spool)                              // negative offset
	f.Add(sidecar("ffeeddccbbaa0099", 0, nil), spool)               // another session's id
	f.Add([]byte(`{"id":"00112233445566ff","offset":1e30}`), spool) // offset overflows int64
	f.Add([]byte(`{"id":"00112233445566ff","offset":"6"}`), spool)
	f.Add([]byte("null"), spool)
	f.Add([]byte("not json"), spool)
	f.Add([]byte{}, spool)

	f.Fuzz(func(t *testing.T, meta, spool []byte) {
		dir := filepath.Join(t.TempDir(), "uploads")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		part, sess := id+partSuffix, id+sessSuffix
		for name, b := range map[string][]byte{part: spool, sess: meta} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The verdict the sidecar earns; recovery reads at most 64 KiB
		// of it.
		var m uploadMeta
		valid := json.Unmarshal(meta[:min(len(meta), 1<<16)], &m) == nil &&
			m.ID == id && m.Offset >= 0 && m.Offset <= int64(len(spool))
		if valid {
			sum := sha256.Sum256(spool[:m.Offset])
			valid = m.SHA256 == hex.EncodeToString(sum[:])
		}

		u, err := OpenUploads(UploadsConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		up, ok := u.Get(id)
		if ok != valid || u.Recovered() != u.Len() {
			t.Fatalf("session registered %v, sidecar valid %v (recovered %d of %d)", ok, valid, u.Recovered(), u.Len())
		}
		if !ok {
			for name, want := range map[string][]byte{part: spool, sess: meta} {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Fatalf("%s left beside the sessions: %v", name, err)
				}
				got, err := os.ReadFile(filepath.Join(dir, quarantineDir, name))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s not quarantined unchanged: %v", name, err)
				}
			}
			return
		}
		if up.Offset() != m.Offset {
			t.Fatalf("recovered offset %d, sidecar %d", up.Offset(), m.Offset)
		}
		path, size, err := u.Seal(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || size != m.Offset || !bytes.Equal(got, spool[:m.Offset]) {
			t.Fatalf("sealed %d bytes, want the %d-byte durable prefix (%v)", size, m.Offset, err)
		}
	})
}
