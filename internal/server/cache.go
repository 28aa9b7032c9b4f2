package server

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// Store-key prefixes of the four cached kinds, which share one durable
// directory. Result digests are bare hex, so the prefixed keys cannot
// collide with them.
const (
	resultStoreKey   = ""
	traceStoreKey    = "t-"
	pairStoreKey     = "p-"
	scheduleStoreKey = "s-"
)

// maxCachedDocs bounds the memory tier of the result, pair and schedule
// caches: as many entries as the job map (DefaultMaxJobs) already keeps
// full results for. An evicted entry is re-read from the durable tier,
// or recomputed identically when there is none.
const maxCachedDocs = DefaultMaxJobs

// tieredCache is the content-addressed cache behind every artifact
// layoutd serves by digest: optimization results (keyed by
// resultDigest), retained traces (by upload digest), and co-run pair
// and schedule documents. A key hashes everything that determines its
// value, so a value never changes and is never invalidated, only
// evicted — which is what makes `GET /v1/layouts/{digest}` a stable
// address and a resubmission free.
//
// It is two-tiered: a bounded in-memory LRU in front of the optional
// durable tier (blobStore, keyed prefix+key). A memory miss falls
// through to disk and repopulates memory, so values computed before a
// restart keep being served. Disk writes are write-behind (store.Put
// queues them). encode and decode are the kind's disk format: JSON for
// results and documents, canonical CLTR for traces.
type tieredCache[T any] struct {
	prefix string
	max    int
	disk   blobStore // nil: memory-only
	encode func(*T) ([]byte, error)
	// decode may also reject a blob that is not the value for key
	// (results check their Digest). The store verified the blob's
	// checksum, so a failure is format drift or a foreign file, not
	// corruption: it reads as a miss.
	decode func(key string, data []byte) (*T, error)

	mu      sync.Mutex
	entries map[string]*list.Element // values are *tieredEntry[T]
	order   *list.List               // front = most recently used
}

type tieredEntry[T any] struct {
	key string
	val *T
}

func newTieredCache[T any](prefix string, max int, disk blobStore,
	encode func(*T) ([]byte, error), decode func(string, []byte) (*T, error)) *tieredCache[T] {
	return &tieredCache[T]{prefix: prefix, max: max, disk: disk, encode: encode, decode: decode,
		entries: make(map[string]*list.Element), order: list.New()}
}

// get returns the value for key, consulting the durable tier on a
// memory miss. The disk read is recorded as a store.read span on ctx's
// recorder, if any.
func (c *tieredCache[T]) get(ctx context.Context, key string) (*T, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		v := e.Value.(*tieredEntry[T]).val
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	if c.disk == nil {
		return nil, false
	}
	sp := obs.StartSpan(ctx, "store.read")
	data, ok := c.disk.Get(c.prefix + key)
	sp.SetAttr("bytes", int64(len(data)))
	sp.End()
	if !ok {
		return nil, false
	}
	v, err := c.decode(key, data)
	if err != nil {
		return nil, false
	}
	c.putMemory(key, v) // already on disk
	return v, true
}

// put stores a computed value in both tiers. A key memory already holds
// is only refreshed in LRU order: by content addressing its value is
// the same, so nothing is re-encoded or re-written. The store.write span
// covers the encode and the enqueue, never the disk.
func (c *tieredCache[T]) put(ctx context.Context, key string, v *T) {
	if !c.putMemory(key, v) || c.disk == nil {
		return
	}
	sp := obs.StartSpan(ctx, "store.write")
	if data, err := c.encode(v); err == nil {
		sp.SetAttr("bytes", int64(len(data)))
		c.disk.Put(c.prefix+key, data)
	}
	sp.End()
}

// putEncoded stores a value that arrives already encoded (a streamed
// upload's spooled CLTR bytes, which are the canonical encoding). With
// a durable tier the bytes go to disk only, and a later get decodes them
// into memory; without one they are decoded into the memory tier now.
func (c *tieredCache[T]) putEncoded(ctx context.Context, key string, data []byte) {
	if c.disk == nil {
		if v, err := c.decode(key, data); err == nil {
			c.putMemory(key, v)
		}
		return
	}
	sp := obs.StartSpan(ctx, "store.write")
	sp.SetAttr("bytes", int64(len(data)))
	c.disk.Put(c.prefix+key, data)
	sp.End()
}

// putMemory inserts into the LRU tier, evicting the least recently used
// entries beyond max; it reports false when the key was already held
// (refreshed in place, nothing to persist).
func (c *tieredCache[T]) putMemory(key string, v *T) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		return false
	}
	c.entries[key] = c.order.PushFront(&tieredEntry[T]{key: key, val: v})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*tieredEntry[T]).key)
	}
	return true
}

// drop purges the memory tier's copy of a key (the admin DELETE path;
// the disk blob is removed separately).
func (c *tieredCache[T]) drop(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.Remove(e)
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// len reports the number of values held in memory.
func (c *tieredCache[T]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// resultDigest derives the result cache key. The fields are
// length-prefixed by newline framing over hex/known-charset values, so
// distinct inputs cannot collide by concatenation.
func resultDigest(traceDigest, prog, optimizer string, pruneTopN int) string {
	h := sha256.New()
	fmt.Fprintf(h, "layoutd/v1\ntrace:%s\nprog:%s\nopt:%s\nprune:%d\n",
		traceDigest, prog, optimizer, pruneTopN)
	return hex.EncodeToString(h.Sum(nil))
}

func encodeJSON[T any](v *T) ([]byte, error) { return json.Marshal(v) }

func decodeJSON[T any](_ string, data []byte) (*T, error) {
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// decodeResult also requires the blob to name its own key as Digest.
func decodeResult(key string, data []byte) (*Result, error) {
	r, err := decodeJSON[Result](key, data)
	if err == nil && r.Digest != key {
		err = fmt.Errorf("result blob %s records digest %s", key, r.Digest)
	}
	return r, err
}

// encodeCLTR writes a trace's canonical CLTR encoding. Disk reads trust
// the store's own checksum rather than re-deriving the key: the key is
// the digest of the uploaded bytes, and a legal upload with trailing
// noise canonicalizes differently.
func encodeCLTR(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	_, err := tr.WriteTo(&buf)
	return buf.Bytes(), err
}

func decodeCLTR(_ string, data []byte) (*trace.Trace, error) {
	return trace.ReadFrom(bytes.NewReader(data))
}
