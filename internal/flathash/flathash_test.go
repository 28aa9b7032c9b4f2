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

// rowKey is one (row, partner) coordinate of a Rows table.
type rowKey struct{ row, partner int32 }

// fillRows adds n random deltas over 150 rows of up to 600 partners,
// the way the kernels accumulate, into t (reset to 150 rows) and into a
// map reference.
func fillRows(t *Rows[int64], rng *rand.Rand, n int, ref map[rowKey]int64) {
	t.Reset(150)
	for i := 0; i < n; i++ {
		k := rowKey{int32(rng.Intn(150)), int32(rng.Intn(600))}
		d := int64(rng.Intn(5) + 1)
		*t.Ref(k.row, k.partner) += d
		ref[k] += d
	}
}

// checkRows requires t to hold exactly ref.
func checkRows(t *testing.T, tab *Rows[int64], ref map[rowKey]int64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k.row, k.partner); !ok || got != want {
			t.Fatalf("Get(%d, %d) = %d, %v; want %d", k.row, k.partner, got, ok, want)
		}
	}
	seen := 0
	for r := int32(0); r < int32(tab.NumRows()); r++ {
		for _, e := range tab.Row(r) {
			if e.Partner < 0 {
				continue
			}
			if want := ref[rowKey{r, e.Partner}]; e.Val != want {
				t.Fatalf("Row(%d) partner %d = %d, want %d", r, e.Partner, e.Val, want)
			}
			seen++
		}
	}
	if seen != len(ref) {
		t.Fatalf("Row visited %d entries, want %d", seen, len(ref))
	}
}

func TestRowsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tab Rows[int64]
	ref := make(map[rowKey]int64)
	fillRows(&tab, rng, 40000, ref)
	checkRows(t, &tab, ref)
	if _, ok := tab.Get(3, 5000); ok {
		t.Fatal("Get of an absent partner reported present")
	}
	if _, ok := tab.Get(500, 1); ok {
		t.Fatal("Get beyond NumRows reported present")
	}
	if _, ok := tab.Get(-1, 1); ok {
		t.Fatal("Get of a negative row reported present")
	}
	if _, ok := tab.Get(3, -1); ok {
		t.Fatal("Get of a negative partner reported present")
	}
	tab.Extend(200)
	checkRows(t, &tab, ref)
	*tab.Ref(199, 7) += 3
	if got, ok := tab.Get(199, 7); !ok || got != 3 {
		t.Fatalf("Get on an extended row = %d, %v; want 3", got, ok)
	}
}

func TestRowsMergeFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b Rows[int64]
	ref := make(map[rowKey]int64)
	fillRows(&a, rng, 20000, ref)
	fillRows(&b, rng, 30000, ref)
	b.Extend(180)
	*b.Ref(170, 2) += 9
	ref[rowKey{170, 2}] += 9
	a.MergeFrom(&b, func(dst *int64, src int64) { *dst += src })
	checkRows(t, &a, ref)
}

// TestRowsStorageBound: however the tables grow, the backing slice holds
// at most twice the slots of the live tables, and a reset table regrows
// without allocating.
func TestRowsStorageBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tab Rows[int64]
	tab.Reset(300)
	for i := 0; i < 100000; i++ {
		// Skewed rows: a few grow large while most stay small.
		row := int32(rng.Intn(300) * rng.Intn(300) / 300)
		*tab.Ref(row, int32(rng.Intn(5000)))++
		if cap(tab.slots) > 2*tab.live {
			t.Fatalf("after %d inserts: %d slots held for %d live", i+1, cap(tab.slots), tab.live)
		}
	}
	live := 0
	for _, h := range tab.heads {
		if h.bits != 0 {
			live += 1 << h.bits
		}
	}
	if live != tab.live {
		t.Fatalf("live = %d, tables hold %d", tab.live, live)
	}
	t.Logf("%d entries in %d live slots, %d held (%d bytes)", tab.Len(), tab.live, cap(tab.slots), tab.Bytes())
}

// TestRowsSteadyStateAllocs: after warm-up, re-accumulating into a
// Reset table allocates nothing, compactions included.
func TestRowsSteadyStateAllocs(t *testing.T) {
	var tab Rows[int64]
	fill := func() {
		tab.Reset(64)
		for a := int32(0); a < 64; a++ {
			for b := int32(0); b < 64*int32(a%7+1); b += 3 {
				*tab.Ref(a, b) += int64(b)
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

// maxProbe is the longest probe over every row's table.
func (t *Rows[V]) maxProbe() int {
	longest := 0
	for r, h := range t.heads {
		tab := t.Row(int32(r))
		mask := uint32(len(tab) - 1)
		for i, e := range tab {
			if e.Partner >= 0 {
				longest = max(longest, int((uint32(i)-rowHash(e.Partner, h.bits))&mask))
			}
		}
	}
	return longest
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
	t.Run("Rows", func(t *testing.T) {
		// One row per symbol, as the kernels keep them: each pair key
		// becomes an entry in the smaller symbol's row. Rows of up to
		// 4000 partners stand in for the hash range the pair tables
		// share.
		var src Rows[int64]
		src.Reset(4000)
		for i, k := range keys {
			*src.Ref(int32(k>>32), int32(k)) += int64(i + 1)
		}
		var dst Rows[int64]
		merge := func(d *int64, s int64) { *d += s }
		dst.MergeFrom(&src, merge)
		if got := dst.maxProbe(); got > mergeProbeBound {
			t.Fatalf("longest probe after merge = %d slots, want <= %d", got, mergeProbeBound)
		}
		dst.MergeFrom(&src, merge)
		if dst.Len() != len(keys) {
			t.Fatalf("Len = %d, want %d", dst.Len(), len(keys))
		}
		for i, k := range keys {
			if got, _ := dst.Get(int32(k>>32), int32(k)); got != 2*int64(i+1) {
				t.Fatalf("Get(%d) = %d, want %d", k, got, 2*int64(i+1))
			}
		}
	})
}
