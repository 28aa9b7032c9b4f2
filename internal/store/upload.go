package store

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"codelayout/internal/fault"
)

// Resumable upload sessions: the server-side half of layoutd's chunked
// trace ingest. A client creates a session, PATCHes byte ranges at the
// offset the server reports, and finalizes; if the connection drops
// mid-PATCH it asks for the current offset and continues from there.
//
// Durability model: spooled bytes live in .part files next to the blob
// store, fsynced after every accepted append, and each append is
// all-or-nothing — a failed or short body truncates back to the prior
// offset, so the reported offset always equals the durable prefix.
// Beside every spool sits a .session metadata document (id, durable
// offset, sha256 of the durable prefix) persisted with the same
// tmp+fsync+rename discipline as blobs, written only after the spool
// bytes it describes are themselves fsynced. That makes sessions
// survive a SIGKILL: the startup scan re-opens every spool whose
// metadata checks out (truncating any un-recorded tail a crash left
// behind and re-verifying the prefix checksum), and quarantines only
// truly orphaned or corrupt pairs. A client that held an upload across
// a daemon restart just re-GETs the offset — or learns it from the 409
// resync — and continues.

// Spool-directory file classes. The blob store never scans this
// directory (uploads live in their own subdirectory).
const (
	// partSuffix marks upload spool files.
	partSuffix = ".part"
	// sessSuffix marks the metadata document beside each spool.
	sessSuffix = ".session"
	// uploadTmpSuffix marks in-flight metadata writes, deleted on sight
	// at startup.
	uploadTmpSuffix = ".tmp"
	// streamSpoolPrefix/-Suffix match the server's streamed-submission
	// spools (os.CreateTemp "stream-*.cltr" in this directory). They are
	// request-scoped, so any survivor belongs to a dead process and is
	// deleted at startup.
	streamSpoolPrefix = "stream-"
	streamSpoolSuffix = ".cltr"
)

// Defaults for zero UploadsConfig limits.
const (
	// DefaultUploadMaxBytes bounds one upload's spooled size.
	DefaultUploadMaxBytes = 4 << 30
	// DefaultMaxUploadSessions bounds concurrently open sessions.
	DefaultMaxUploadSessions = 64
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrOffsetMismatch: the PATCH offset is not the session's current
	// offset (409; re-GET the offset and resume from there).
	ErrOffsetMismatch = errors.New("store: upload offset mismatch")
	// ErrUploadTooLarge: the append would exceed the per-upload bound
	// (413).
	ErrUploadTooLarge = errors.New("store: upload exceeds size limit")
	// ErrTooManySessions: the session table is full (429).
	ErrTooManySessions = errors.New("store: too many upload sessions")
	// ErrUploadSealed: the session was already finalized (409).
	ErrUploadSealed = errors.New("store: upload already finalized")
)

// uploadMeta is the .session document: everything needed to adopt the
// spool after a crash. SHA256 is the hex digest of the durable prefix
// (the first Offset bytes), so recovery can prove the spool it found is
// the spool the metadata describes.
type uploadMeta struct {
	ID      string `json:"id"`
	Offset  int64  `json:"offset"`
	SHA256  string `json:"sha256"`
	Created string `json:"created"` // RFC3339, informational
}

// UploadsConfig configures OpenUploads.
type UploadsConfig struct {
	// Dir is the spool directory, created if absent.
	Dir string
	// MaxBytes bounds one upload's size. 0 means DefaultUploadMaxBytes.
	MaxBytes int64
	// MaxSessions bounds concurrently open sessions (recovered sessions
	// are always adopted, even past the bound). 0 means
	// DefaultMaxUploadSessions.
	MaxSessions int
	// FS is the filesystem; nil means fault.OS(). Tests inject faults
	// through it, same as the blob store.
	FS fault.FS
	// Logf receives recovery and quarantine diagnostics. nil means
	// silent.
	Logf func(format string, args ...any)
}

// Uploads manages the upload sessions of one daemon process.
type Uploads struct {
	dir         string
	maxBytes    int64
	maxSessions int
	fs          fault.FS
	logf        func(format string, args ...any)
	recovered   int // sessions adopted by the startup scan

	mu sync.Mutex
	m  map[string]*Upload
}

// NewUploads is the legacy constructor: OpenUploads against the real
// filesystem. maxBytes bounds one upload, maxSessions the open-session
// count; zeros mean the defaults.
func NewUploads(dir string, maxBytes int64, maxSessions int) (*Uploads, error) {
	return OpenUploads(UploadsConfig{Dir: dir, MaxBytes: maxBytes, MaxSessions: maxSessions})
}

// OpenUploads prepares the spool directory and recovers the sessions of
// a previous process: every .part spool with a valid .session metadata
// document is checksum-verified, truncated to its durable offset, and
// re-registered at the offset the dead process last acknowledged.
// Orphaned or corrupt spool/metadata pairs are quarantined; stray
// metadata temp files and dead streamed-submission spools are deleted.
func OpenUploads(cfg UploadsConfig) (*Uploads, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultUploadMaxBytes
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxUploadSessions
	}
	if cfg.FS == nil {
		cfg.FS = fault.OS()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	u := &Uploads{
		dir:         cfg.Dir,
		maxBytes:    cfg.MaxBytes,
		maxSessions: cfg.MaxSessions,
		fs:          cfg.FS,
		logf:        cfg.Logf,
		m:           make(map[string]*Upload),
	}
	if err := u.fs.MkdirAll(u.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating upload dir %s: %w", u.dir, err)
	}
	if err := u.scan(); err != nil {
		return nil, err
	}
	return u, nil
}

// scan classifies every file in the spool directory and recovers or
// quarantines upload sessions.
func (u *Uploads) scan() error {
	ents, err := u.fs.ReadDir(u.dir)
	if err != nil {
		return fmt.Errorf("store: scanning upload dir %s: %w", u.dir, err)
	}
	parts := make(map[string]bool)
	metas := make(map[string]bool)
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		switch {
		case strings.HasSuffix(name, uploadTmpSuffix):
			// An in-flight metadata write that never renamed into place.
			_ = u.fs.Remove(filepath.Join(u.dir, name))
		case strings.HasPrefix(name, streamSpoolPrefix) && strings.HasSuffix(name, streamSpoolSuffix):
			// A streamed submission spool whose request died with the
			// process.
			u.logf("store: removing dead stream spool %s", name)
			_ = u.fs.Remove(filepath.Join(u.dir, name))
		case strings.HasSuffix(name, partSuffix):
			parts[strings.TrimSuffix(name, partSuffix)] = true
		case strings.HasSuffix(name, sessSuffix):
			metas[strings.TrimSuffix(name, sessSuffix)] = true
		}
	}
	for id := range parts {
		if !metas[id] {
			// A spool with no metadata: Create crashed between the two
			// writes, or the metadata was lost. Nothing proves what the
			// bytes are; set it aside.
			u.quarantine(id+partSuffix, errors.New("no session metadata"))
			continue
		}
		if err := u.recover(id); err != nil {
			u.logf("store: quarantining upload session %s: %v", id, err)
			u.quarantine(id+partSuffix, err)
			u.quarantine(id+sessSuffix, err)
		}
	}
	for id := range metas {
		if !parts[id] {
			// Metadata with no spool: the spool was consumed (sealed) but
			// the metadata removal was lost, or the spool is gone. Either
			// way the session cannot continue.
			u.quarantine(id+sessSuffix, errors.New("no spool for session metadata"))
		}
	}
	u.recovered = len(u.m)
	if u.recovered > 0 {
		u.logf("store: recovered %d upload session(s)", u.recovered)
	}
	return nil
}

// recover adopts one spool/metadata pair: parse, verify the prefix
// checksum, truncate the spool to the durable offset, and register the
// session. Any failure is returned for the caller to quarantine.
func (u *Uploads) recover(id string) error {
	mf, err := u.fs.Open(u.metaPath(id))
	if err != nil {
		return fmt.Errorf("opening metadata: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(mf, 1<<16))
	mf.Close()
	if err != nil {
		return fmt.Errorf("reading metadata: %w", err)
	}
	var meta uploadMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return fmt.Errorf("parsing metadata: %w", err)
	}
	if meta.ID != id || meta.Offset < 0 {
		return fmt.Errorf("metadata names %q offset %d", meta.ID, meta.Offset)
	}
	fi, err := u.fs.Stat(u.partPath(id))
	if err != nil {
		return fmt.Errorf("stat spool: %w", err)
	}
	if fi.Size() < meta.Offset {
		// The durable prefix the client was promised does not exist.
		return fmt.Errorf("spool is %d bytes, durable offset %d", fi.Size(), meta.Offset)
	}
	f, err := u.fs.OpenFile(u.partPath(id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("reopening spool: %w", err)
	}
	h := sha256.New()
	if _, err := io.CopyN(h, f, meta.Offset); err != nil {
		f.Close()
		return fmt.Errorf("hashing durable prefix: %w", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != meta.SHA256 {
		// Verified before any truncation, so a spool that goes to
		// quarantine keeps every byte it had.
		f.Close()
		return fmt.Errorf("durable prefix sha256 %s, metadata records %s", got, meta.SHA256)
	}
	if fi.Size() > meta.Offset {
		// Bytes past the recorded offset were never acknowledged (the
		// crash hit between the spool fsync and the metadata persist);
		// drop them so the spool equals the durable prefix.
		if err := f.Truncate(meta.Offset); err != nil {
			f.Close()
			return fmt.Errorf("truncating spool to durable offset: %w", err)
		}
	}
	up := &Upload{
		ID:        id,
		maxBytes:  u.maxBytes,
		u:         u,
		f:         f,
		offset:    meta.Offset,
		hash:      h,
		created:   meta.Created,
		Recovered: true,
	}
	u.m[id] = up
	u.logf("store: recovered upload session %s at offset %d", id, meta.Offset)
	return nil
}

// quarantine moves a spool-directory file into quarantine/ (or deletes
// it if the move fails), mirroring the blob store's policy: keep the
// evidence for forensics, never let it masquerade as live state.
func (u *Uploads) quarantine(name string, cause error) {
	src := filepath.Join(u.dir, name)
	qdir := filepath.Join(u.dir, quarantineDir)
	_ = u.fs.MkdirAll(qdir, 0o755)
	if err := u.fs.Rename(src, filepath.Join(qdir, name)); err != nil {
		_ = u.fs.Remove(src)
	}
	u.logf("store: quarantined upload file %s: %v", name, cause)
}

// Dir returns the spool directory (the server also parks streamed
// submission spools beside the upload sessions).
func (u *Uploads) Dir() string { return u.dir }

// Recovered returns how many sessions the startup scan adopted from a
// previous process.
func (u *Uploads) Recovered() int { return u.recovered }

// Create opens a new session at offset 0 and persists its metadata, so
// the session exists after a crash even before the first append.
func (u *Uploads) Create() (*Upload, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("store: upload id: %w", err)
	}
	id := hex.EncodeToString(b[:])
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.m) >= u.maxSessions {
		return nil, ErrTooManySessions
	}
	f, err := u.fs.Create(u.partPath(id))
	if err != nil {
		return nil, fmt.Errorf("store: upload spool: %w", err)
	}
	up := &Upload{
		ID:       id,
		maxBytes: u.maxBytes,
		u:        u,
		f:        f,
		hash:     sha256.New(),
		created:  time.Now().UTC().Format(time.RFC3339),
	}
	if err := u.persistMeta(up); err != nil {
		f.Close()
		_ = u.fs.Remove(u.partPath(id))
		return nil, fmt.Errorf("store: upload session metadata: %w", err)
	}
	u.m[id] = up
	return up, nil
}

// persistMeta writes up's metadata document with tmp+fsync+rename, then
// best-effort fsyncs the directory. Callers must hold up.mu or otherwise
// have exclusive use of the session.
func (u *Uploads) persistMeta(up *Upload) error {
	meta := uploadMeta{
		ID:      up.ID,
		Offset:  up.offset,
		SHA256:  hex.EncodeToString(up.hash.Sum(nil)),
		Created: up.created,
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	tmp := u.metaPath(up.ID) + uploadTmpSuffix
	f, err := u.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = u.fs.Remove(tmp)
		return err
	}
	if err := u.fs.Rename(tmp, u.metaPath(up.ID)); err != nil {
		_ = u.fs.Remove(tmp)
		return err
	}
	if d, err := u.fs.Open(u.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Get returns the open session with the given id.
func (u *Uploads) Get(id string) (*Upload, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	up, ok := u.m[id]
	return up, ok
}

// Len returns the number of open sessions (the sessions gauge).
func (u *Uploads) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.m)
}

// Seal finalizes the session: the spool file is synced, closed and
// handed to the caller, the metadata document is removed, and the
// session slot frees up. The caller owns the returned path — typically
// it streams the bytes into a job and then removes the file.
func (u *Uploads) Seal(id string) (path string, size int64, err error) {
	u.mu.Lock()
	up, ok := u.m[id]
	if ok {
		delete(u.m, id)
	}
	u.mu.Unlock()
	if !ok {
		return "", 0, fmt.Errorf("store: unknown upload %s", id)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	up.sealed = true
	size = up.offset
	if err := up.f.Close(); err != nil {
		_ = u.fs.Remove(u.partPath(id))
		_ = u.fs.Remove(u.metaPath(id))
		return "", 0, fmt.Errorf("store: sealing upload %s: %w", id, err)
	}
	_ = u.fs.Remove(u.metaPath(id))
	return u.partPath(id), size, nil
}

// Discard drops the session and deletes its spool and metadata files,
// reporting whether the session existed.
func (u *Uploads) Discard(id string) bool {
	u.mu.Lock()
	up, ok := u.m[id]
	if ok {
		delete(u.m, id)
	}
	u.mu.Unlock()
	if !ok {
		return false
	}
	up.mu.Lock()
	up.sealed = true
	_ = up.f.Close()
	up.mu.Unlock()
	_ = u.fs.Remove(u.partPath(id))
	_ = u.fs.Remove(u.metaPath(id))
	return true
}

func (u *Uploads) partPath(id string) string {
	return filepath.Join(u.dir, id+partSuffix)
}

func (u *Uploads) metaPath(id string) string {
	return filepath.Join(u.dir, id+sessSuffix)
}

// Upload is one resumable session. Appends serialize on the session;
// a concurrent PATCH simply observes a stale offset and gets
// ErrOffsetMismatch.
type Upload struct {
	ID string
	// Recovered is true when the startup scan adopted this session from
	// a previous process.
	Recovered bool

	maxBytes int64
	u        *Uploads
	created  string

	mu      sync.Mutex
	f       fault.File
	offset  int64
	hash    hash.Hash // sha256 of the durable prefix
	aborted bool      // last append failed mid-body; the next success is a resume
	sealed  bool
}

// Offset returns the durable byte count — where the next Append must
// start.
func (up *Upload) Offset() int64 {
	up.mu.Lock()
	defer up.mu.Unlock()
	return up.offset
}

// DigestHex returns the sha256 of the durable prefix, so clients can
// verify a resumed session matches the bytes they already sent.
func (up *Upload) DigestHex() string {
	up.mu.Lock()
	defer up.mu.Unlock()
	return hex.EncodeToString(up.hash.Sum(nil))
}

// Append writes r's bytes at the given offset. The append is
// all-or-nothing: on any failure (offset mismatch, client disconnect
// mid-body, size bound, disk error) the spool rolls back to the prior
// offset, which is returned alongside the error so the HTTP layer can
// report it. The durable order is spool write → spool fsync → metadata
// persist → acknowledge; a crash between any two steps recovers to the
// last offset a client was actually told. resumed is true when this
// append recovered a session whose previous append failed mid-body —
// the upload-resume counter's signal.
func (up *Upload) Append(offset int64, r io.Reader) (newOffset int64, resumed bool, err error) {
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.sealed {
		return up.offset, false, ErrUploadSealed
	}
	if offset != up.offset {
		return up.offset, false, ErrOffsetMismatch
	}
	// Snapshot the running checksum so a failed append restores it along
	// with the spool bytes it describes.
	hashState, err := up.hash.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return up.offset, false, err
	}
	allowed := up.maxBytes - up.offset
	n, err := io.Copy(io.MultiWriter(up.f, up.hash), io.LimitReader(r, allowed+1))
	if err == nil && n > allowed {
		err = ErrUploadTooLarge
	}
	if err == nil {
		err = up.f.Sync()
	}
	if err == nil {
		up.offset += n
		if merr := up.u.persistMeta(up); merr != nil {
			up.offset -= n
			err = merr
		}
	}
	if err != nil {
		// Roll back to the durable prefix so the reported offset stays
		// truthful; the client resumes from it.
		_ = up.f.Truncate(up.offset)
		_, _ = up.f.Seek(up.offset, io.SeekStart)
		_ = up.hash.(encoding.BinaryUnmarshaler).UnmarshalBinary(hashState)
		up.aborted = true
		return up.offset, false, err
	}
	resumed = up.aborted
	up.aborted = false
	return up.offset, resumed, nil
}
