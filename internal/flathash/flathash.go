// Package flathash provides the open-addressed hash tables backing the
// analysis hot paths, where Go's built-in map — a hashed lookup,
// possible bucket chase and write barrier per update — dominated the
// kernels' profiles. Both shapes store key and value side by side in one
// flat array with linear probing, so an update is a multiply-shift hash,
// a probe over contiguous entries and a plain store, and a cleared table
// reuses its backing arrays: steady-state accumulation allocates nothing.
//
//   - Rows is the kernels' accumulator: one small table per row symbol,
//     keyed by partner symbol, so the many updates one occurrence makes
//     to its own row stay in a few cache lines (DESIGN.md §9).
//   - Sum64 maps packed pairs of *distinct* symbols (two int32 in one
//     int64, smaller first) to an int64: the tables read by pair, such
//     as the minimal affine windows. The packing of the impossible pair
//     (0, 0) is 0, a free empty-slot sentinel; Sum64 rejects key 0 by
//     documented contract rather than a branch per operation.
//
// None of the types are safe for concurrent use; the sharded analyses
// give each worker its own table and merge afterwards.
package flathash

// hash spreads a packed pair key over the table. Fibonacci hashing
// (multiplication by the 64-bit golden ratio, taking the top bits) is
// enough here: keys are already well-mixed pairs and the tables are
// power-of-two sized.
func hash(key int64, shift uint) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> shift)
}

const (
	// minCapacity keeps tiny tables from resizing several times while
	// they warm up.
	minCapacity = 64
	// maxLoadNum/maxLoadDen is the 13/16 (~0.8) load factor at which the
	// tables double. Linear probing degrades sharply past ~0.85.
	maxLoadNum = 13
	maxLoadDen = 16
)

// sumEntry is one Sum64 slot: key and accumulator share a cache line.
type sumEntry struct {
	key int64
	val int64
}

// Sum64 maps packed pair keys to int64 values: the minimal affine
// windows of the affinity analysis and the CMG's direction memory. The
// zero value is ready to use.
type Sum64 struct {
	entries []sumEntry
	n       int
	shift   uint
}

// Len returns the number of distinct keys.
func (t *Sum64) Len() int { return t.n }

// Reset clears the table, keeping capacity for reuse.
func (t *Sum64) Reset() {
	for i := range t.entries {
		t.entries[i] = sumEntry{}
	}
	t.n = 0
}

// Add accumulates delta into the key's value. key must be non-zero.
func (t *Sum64) Add(key int64, delta int64) {
	if t.n*maxLoadDen >= len(t.entries)*maxLoadNum {
		t.grow()
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			e.val += delta
			return
		}
		if e.key == 0 {
			e.key = key
			e.val = delta
			t.n++
			return
		}
		i = (i + 1) & mask
	}
}

// Set stores val as the key's value, replacing any prior value. key
// must be non-zero. Storing 0 is allowed but indistinguishable from an
// absent key for Get.
func (t *Sum64) Set(key int64, val int64) {
	if t.n*maxLoadDen >= len(t.entries)*maxLoadNum {
		t.grow()
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			e.val = val
			return
		}
		if e.key == 0 {
			e.key = key
			e.val = val
			t.n++
			return
		}
		i = (i + 1) & mask
	}
}

// Get returns the key's value, 0 if absent. key must be non-zero.
func (t *Sum64) Get(key int64) int64 {
	if t.n == 0 {
		return 0
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			return e.val
		}
		if e.key == 0 {
			return 0
		}
		i = (i + 1) & mask
	}
}

// ForEach visits every (key, value) pair in unspecified order. The
// callers' downstream steps (per-symbol indexes) are insertion-order
// independent, matching the Go map iteration this replaces.
func (t *Sum64) ForEach(f func(key int64, val int64)) {
	for i := range t.entries {
		if t.entries[i].key != 0 {
			f(t.entries[i].key, t.entries[i].val)
		}
	}
}

// MergeFrom adds every value of src into t, as Add would key by key.
// It first grows t to at least src's capacity. Without that, merging a
// large table into a small or empty one is quadratic: src's slots hold
// its keys in nearly ascending hash order, a smaller t maps them to
// ascending home slots, and linear probing piles them into one run that
// every later insert walks to its end. With t at least as large as src,
// the keys arrive spread over at least as many home slots as src holds
// them in, so t builds no probe run longer than src's own.
func (t *Sum64) MergeFrom(src *Sum64) {
	if len(t.entries) < len(src.entries) {
		t.rehash(len(src.entries))
	}
	for i := range src.entries {
		if e := src.entries[i]; e.key != 0 {
			t.Add(e.key, e.val)
		}
	}
}

func (t *Sum64) grow() { t.rehash(max(2*len(t.entries), minCapacity)) }

// rehash moves the entries into a table of n slots (a power of two).
func (t *Sum64) rehash(n int) {
	old := t.entries
	t.entries = make([]sumEntry, n)
	t.shift = shiftFor(n)
	mask := n - 1
	for j := range old {
		if old[j].key == 0 {
			continue
		}
		i := hash(old[j].key, t.shift)
		for t.entries[i].key != 0 {
			i = (i + 1) & mask
		}
		t.entries[i] = old[j]
	}
}

// shiftFor returns the top-bits shift selecting log2(n) bits.
func shiftFor(n int) uint {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	return 64 - bits
}
