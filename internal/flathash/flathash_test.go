package flathash

import (
	"math/rand"
	"testing"
)

// pairKey mirrors the packing the analysis kernels use: two distinct
// int32 symbols, smaller first, never producing key 0.
func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

func TestSum64MatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Sum64
	ref := make(map[int64]int64)
	for i := 0; i < 20000; i++ {
		a, b := int32(rng.Intn(200)), int32(rng.Intn(200))
		if a == b {
			b = a + 1
		}
		k := pairKey(a, b)
		d := int64(rng.Intn(5) + 1)
		tab.Add(k, d)
		ref[k] += d
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, v := range ref {
		if got := tab.Get(k); got != v {
			t.Fatalf("Get(%d) = %d, want %d", k, got, v)
		}
	}
	if got := tab.Get(pairKey(500, 501)); got != 0 {
		t.Fatalf("absent key = %d, want 0", got)
	}
	seen := 0
	tab.ForEach(func(k, v int64) {
		if ref[k] != v {
			t.Fatalf("ForEach(%d) = %d, want %d", k, v, ref[k])
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("ForEach visited %d keys, want %d", seen, len(ref))
	}
}

func TestSum64Reset(t *testing.T) {
	var tab Sum64
	tab.Add(pairKey(1, 2), 7)
	tab.Reset()
	if tab.Len() != 0 || tab.Get(pairKey(1, 2)) != 0 {
		t.Fatal("Reset did not clear the table")
	}
	tab.Add(pairKey(1, 2), 3)
	if got := tab.Get(pairKey(1, 2)); got != 3 {
		t.Fatalf("post-reset Get = %d, want 3", got)
	}
}

func TestSlab32MatchesMap(t *testing.T) {
	const stride = 6
	rng := rand.New(rand.NewSource(2))
	var tab Slab32
	tab.Init(stride)
	ref := make(map[int64][]uint32)
	for i := 0; i < 20000; i++ {
		a, b := int32(rng.Intn(150)), int32(rng.Intn(150))
		if a == b {
			b = a + 1
		}
		k := pairKey(a, b)
		d := rng.Intn(stride)
		tab.Counters(k)[d]++
		if ref[k] == nil {
			ref[k] = make([]uint32, stride)
		}
		ref[k][d]++
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		got := tab.Lookup(k)
		if got == nil {
			t.Fatalf("Lookup(%d) = nil", k)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("counters(%d)[%d] = %d, want %d", k, d, got[d], want[d])
			}
		}
	}
	if tab.Lookup(pairKey(300, 301)) != nil {
		t.Fatal("Lookup of absent key returned a block")
	}
}

func TestSlab32MergeFrom(t *testing.T) {
	const stride = 4
	var a, b Slab32
	a.Init(stride)
	b.Init(stride)
	a.Counters(pairKey(1, 2))[0] = 5
	a.Counters(pairKey(1, 3))[1] = 1
	b.Counters(pairKey(1, 2))[0] = 2
	b.Counters(pairKey(1, 2))[3] = 9
	b.Counters(pairKey(4, 5))[2] = 7
	a.MergeFrom(&b)
	if got := a.Lookup(pairKey(1, 2)); got[0] != 7 || got[3] != 9 {
		t.Fatalf("merged (1,2) = %v", got)
	}
	if got := a.Lookup(pairKey(1, 3)); got[1] != 1 {
		t.Fatalf("merged (1,3) = %v", got)
	}
	if got := a.Lookup(pairKey(4, 5)); got[2] != 7 {
		t.Fatalf("merged (4,5) = %v", got)
	}
	if a.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", a.Len())
	}
}

func TestSlab32InitReuse(t *testing.T) {
	var tab Slab32
	tab.Init(3)
	tab.Counters(pairKey(1, 2))[2] = 42
	tab.Init(3)
	if tab.Len() != 0 {
		t.Fatal("Init did not clear the table")
	}
	// The reused slab must come back zeroed.
	if got := tab.Counters(pairKey(1, 2)); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("reused slab not zeroed: %v", got)
	}
}

// TestSlab32SteadyStateAllocs: after warm-up, re-accumulating into an
// Init-cleared table allocates nothing.
func TestSlab32SteadyStateAllocs(t *testing.T) {
	var tab Slab32
	fill := func() {
		tab.Init(8)
		for a := int32(0); a < 64; a++ {
			for b := a + 1; b < 64; b += 3 {
				tab.Counters(pairKey(a, b))[int(b)%8]++
			}
		}
	}
	fill() // warm up capacity
	allocs := testing.AllocsPerRun(10, fill)
	if allocs != 0 {
		t.Fatalf("steady-state fill allocated %.1f times per run, want 0", allocs)
	}
}

// maxProbe returns the longest distance, in slots, between a key's home
// slot and the slot holding it: the worst probe sequence a lookup walks.
func maxProbe(keys []int64, shift uint) int {
	longest, mask := 0, len(keys)-1
	for i, k := range keys {
		if k != 0 {
			longest = max(longest, (i-hash(k, shift))&mask)
		}
	}
	return longest
}

func (t *Sum64) maxProbe() int {
	keys := make([]int64, len(t.entries))
	for i, e := range t.entries {
		keys[i] = e.key
	}
	return maxProbe(keys, t.shift)
}

func (t *Slab32) maxProbe() int {
	keys := make([]int64, len(t.entries))
	for i, e := range t.entries {
		keys[i] = e.key
	}
	return maxProbe(keys, t.shift)
}

// mergeKeys is the clustering fixture: 200k distinct pair keys, the size
// of a basic-block TRG shard graph, all hashing into the lower half of
// the hash range.
//
// A table's slots hold its keys in nearly ascending hash order, so a
// slot-order merge inserts them in ascending order of their home slots.
// Into a table with fewer slots than the source, that order lands more
// keys on a span of home slots than the span has slots, and linear
// probing packs them into one run that every later insert walks to its
// end. With keys spread over the whole hash range the run is transient:
// the destination's next grow rehashes it away, leaving only the time it
// cost. Confining the keys to half the range keeps the run past the end
// of the merge, where the probe check can see it.
func mergeKeys() []int64 {
	rng := rand.New(rand.NewSource(11))
	seen := make(map[int64]bool)
	var keys []int64
	for len(keys) < 200_000 {
		a, b := int32(rng.Intn(4000)), int32(rng.Intn(4000))
		k := pairKey(a, b)
		if a != b && hash(k, 0) >= 0 && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// mergeProbeBound caps the longest probe run a merge may build. The
// source tables below, filled key by key to a 0.76 load on their half of
// the slots, keep theirs under it.
const mergeProbeBound = 256

// TestMergeFromKeepsProbesShort is the clustering regression test: a
// 200k-key table merged slot by slot into an empty table must give every
// key the value per-key Add gives it, and must build no probe run longer
// than mergeProbeBound. Each source is sized to twice its key count, as
// a recycled arena table is after Reset.
func TestMergeFromKeepsProbesShort(t *testing.T) {
	keys := mergeKeys()
	t.Run("Sum64", func(t *testing.T) {
		var src Sum64
		src.rehash(1 << 19)
		for i, k := range keys {
			src.Add(k, int64(i+1))
		}
		var dst Sum64
		dst.MergeFrom(&src)
		if got := dst.maxProbe(); got > mergeProbeBound {
			t.Fatalf("longest probe after merge = %d slots, want <= %d", got, mergeProbeBound)
		}
		dst.MergeFrom(&src) // into a non-empty table: values double
		if dst.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", dst.Len(), len(keys))
		}
		for i, k := range keys {
			if got, want := dst.Get(k), 2*int64(i+1); got != want {
				t.Fatalf("Get(%d) = %d, want %d", k, got, want)
			}
		}
	})
	t.Run("Slab32", func(t *testing.T) {
		const stride = 3
		var src Slab32
		src.Init(stride)
		src.rehash(1 << 19)
		for i, k := range keys {
			src.Counters(k)[i%stride] += uint32(i + 1)
		}
		var dst Slab32
		dst.Init(stride)
		dst.MergeFrom(&src)
		if got := dst.maxProbe(); got > mergeProbeBound {
			t.Fatalf("longest probe after merge = %d slots, want <= %d", got, mergeProbeBound)
		}
		dst.MergeFrom(&src)
		if dst.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", dst.Len(), len(keys))
		}
		for i, k := range keys {
			got := dst.Lookup(k)
			for d := range got {
				want := uint32(0)
				if d == i%stride {
					want = 2 * uint32(i+1)
				}
				if got[d] != want {
					t.Fatalf("Lookup(%d)[%d] = %d, want %d", k, d, got[d], want)
				}
			}
		}
	})
}
