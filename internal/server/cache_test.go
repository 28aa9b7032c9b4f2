package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// fakeBlobs is a map-backed durable tier that counts Puts.
type fakeBlobs struct {
	m    map[string][]byte
	puts int
}

func (f *fakeBlobs) Get(key string) ([]byte, bool) {
	d, ok := f.m[key]
	return d, ok
}

func (f *fakeBlobs) Put(key string, data []byte) {
	f.puts++
	f.m[key] = append([]byte(nil), data...)
}

// tierKind is one cached kind as the server wires it: the cache is
// taken from a fresh Server, so prefix, bound and codec are New's.
type tierKind[T any] struct {
	cache  func(s *Server) *tieredCache[T]
	prefix string
	max    int
	// value builds the distinct value i and its key.
	value func(i int) (string, *T)
	// checksKey: a blob stored under another value's key reads as a miss.
	checksKey bool
}

func testKey(i int) string { return fmt.Sprintf("%064x", i) }

// TestTieredCacheKinds drives all four cached kinds, durable and
// memory-only, through the one cache's contract.
func TestTieredCacheKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, durable bool)
	}{
		{"result", func(t *testing.T, durable bool) {
			checkTier(t, durable, tierKind[Result]{
				cache:  func(s *Server) *tieredCache[Result] { return s.cache },
				prefix: "", max: maxCachedDocs, checksKey: true,
				value: func(i int) (string, *Result) {
					k := testKey(i)
					return k, &Result{Digest: k, TraceDigest: testKey(i + 1), Prog: testProg, MissBefore: float64(i)}
				},
			})
		}},
		{"trace", func(t *testing.T, durable bool) {
			checkTier(t, durable, tierKind[trace.Trace]{
				cache:  func(s *Server) *tieredCache[trace.Trace] { return s.traces },
				prefix: "t-", max: DefaultTraceCacheEntries,
				value: func(i int) (string, *trace.Trace) {
					return testKey(i), trace.New([]int32{int32(i), 1, int32(i)})
				},
			})
		}},
		{"pair", func(t *testing.T, durable bool) {
			checkTier(t, durable, tierKind[CorunDoc]{
				cache:  func(s *Server) *tieredCache[CorunDoc] { return s.pairs },
				prefix: "p-", max: maxCachedDocs,
				value: func(i int) (string, *CorunDoc) {
					k := testKey(i)
					return k, &CorunDoc{Digest: k, PairCost: float64(i)}
				},
			})
		}},
		{"schedule", func(t *testing.T, durable bool) {
			checkTier(t, durable, tierKind[ScheduleDoc]{
				cache:  func(s *Server) *tieredCache[ScheduleDoc] { return s.schedules },
				prefix: "s-", max: maxCachedDocs,
				value: func(i int) (string, *ScheduleDoc) {
					k := testKey(i)
					return k, &ScheduleDoc{Digest: k, Digests: []string{testKey(i + 1), testKey(i + 2)}}
				},
			})
		}},
	} {
		for _, durable := range []bool{true, false} {
			name := tc.name + "/memory-only"
			if durable {
				name = tc.name + "/durable"
			}
			t.Run(name, func(t *testing.T) { tc.run(t, durable) })
		}
	}
}

func checkTier[T any](t *testing.T, durable bool, k tierKind[T]) {
	// newCache returns the kind's cache on a fresh server, over a fake
	// durable tier when durable (else disk is an unused empty fake).
	newCache := func() (*tieredCache[T], *fakeBlobs) {
		c := k.cache(newRetentionServer(t, Config{}))
		disk := &fakeBlobs{m: map[string][]byte{}}
		if durable {
			c.disk = disk
		}
		return c, disk
	}
	c, disk := newCache()
	if c.max != k.max || c.prefix != k.prefix {
		t.Fatalf("server wired max %d prefix %q, want %d %q", c.max, c.prefix, k.max, k.prefix)
	}
	rec := obs.NewRecorder(1 << 14)
	ctx := obs.WithRecorder(context.Background(), rec)
	reads := func() int {
		spans, _ := rec.Snapshot()
		n := 0
		for _, sp := range spans {
			if sp.Name == "store.read" {
				n++
			}
		}
		return n
	}
	same := func(got, want *T) bool {
		g, err1 := c.encode(got)
		w, err2 := c.encode(want)
		return err1 == nil && err2 == nil && bytes.Equal(g, w)
	}
	wantPuts := func(want int) {
		t.Helper()
		if durable && disk.puts != want {
			t.Fatalf("durable tier saw %d puts, want %d", disk.puts, want)
		}
	}

	// Memory hit: the stored pointer, no disk read.
	k0, v0 := k.value(0)
	c.put(ctx, k0, v0)
	wantPuts(1)
	if got, ok := c.get(ctx, k0); !ok || got != v0 || reads() != 0 {
		t.Fatalf("memory hit: ok=%v same=%v reads=%d", ok, got == v0, reads())
	}
	if durable {
		enc, _ := c.encode(v0)
		if !bytes.Equal(disk.m[k.prefix+k0], enc) {
			t.Fatalf("durable tier does not hold %s%s", k.prefix, k0)
		}
	}

	// A key memory already holds is refreshed, not rewritten.
	_, v0b := k.value(0)
	c.put(ctx, k0, v0b)
	wantPuts(1)
	if got, _ := c.get(ctx, k0); got != v0 {
		t.Fatal("put of a held key replaced the memory copy")
	}

	// drop purges memory only; a durable cache falls through to disk,
	// records a store.read span, and repopulates memory.
	c.drop(k0)
	if c.len() != 0 {
		t.Fatalf("drop left %d entries in memory", c.len())
	}
	got, ok := c.get(ctx, k0)
	if durable {
		if !ok || !same(got, v0) || reads() != 1 || c.len() != 1 {
			t.Fatalf("disk fall-through: ok=%v reads=%d len=%d", ok, reads(), c.len())
		}
		if again, _ := c.get(ctx, k0); again != got || reads() != 1 {
			t.Fatal("fall-through did not repopulate memory")
		}
	} else if ok {
		t.Fatal("memory-only cache served a dropped key")
	}
	wantPuts(1)

	// putEncoded: durable-only with a store, memory-only without.
	k1, v1 := k.value(1)
	enc1, err := c.encode(v1)
	if err != nil {
		t.Fatal(err)
	}
	held := c.len()
	c.putEncoded(ctx, k1, enc1)
	if durable {
		wantPuts(2)
		if c.len() != held {
			t.Fatal("putEncoded with a store filled the memory tier")
		}
	} else if c.len() != held+1 {
		t.Fatal("putEncoded without a store kept the value nowhere")
	}
	if got, ok := c.get(ctx, k1); !ok || !same(got, v1) {
		t.Fatal("putEncoded value not readable")
	}

	// A blob stored under another value's key reads as a miss.
	if k.checksKey && durable {
		k2, _ := k.value(2)
		disk.m[k.prefix+k2] = enc1
		if _, ok := c.get(ctx, k2); ok {
			t.Fatal("blob naming another key was served")
		}
	}

	// bound+1 inserts on a fresh cache evict the least recently used
	// key: key 0 is refreshed after the fill, so key 1 goes.
	c, disk = newCache()
	for i := 0; i < k.max; i++ {
		key, v := k.value(i)
		c.put(ctx, key, v)
	}
	first, _ := k.value(0)
	c.get(ctx, first)
	key, v := k.value(k.max)
	c.put(ctx, key, v)
	if c.len() != k.max {
		t.Fatalf("memory holds %d after %d inserts, want the bound %d", c.len(), k.max+1, k.max)
	}
	wantPuts(k.max + 1)
	before := reads()
	if _, ok := c.get(ctx, first); !ok || reads() != before {
		t.Fatal("recently used key was evicted")
	}
	lru, want := k.value(1)
	got, ok = c.get(ctx, lru)
	switch {
	case durable && (!ok || !same(got, want) || reads() != before+1):
		t.Fatalf("evicted key not re-read from disk: ok=%v reads=%d", ok, reads()-before)
	case !durable && ok:
		t.Fatal("memory-only cache still serves the evicted key")
	}
	wantPuts(k.max + 1)
}
