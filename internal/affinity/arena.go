package affinity

import (
	"sync"
	"unsafe"

	"codelayout/internal/flathash"
	"codelayout/internal/stackdist"
)

// Arena recycles the analysis' internal buffers across BuildHierarchy
// calls: per-shard windows, partner spans, epoch-stamped scratch, the
// candidate lists and the minimal-window tables. A long-lived caller
// (layoutd running repeated optimization jobs) holds one Arena and
// passes it through Options; after the first few calls warm the pools,
// the stack-pass kernel allocates nothing per job. The zero value is
// ready to use and safe for concurrent use — shards borrow from an
// internal sync.Pool, so concurrent builds simply warm more pool
// entries.
type Arena struct {
	shards sync.Pool // *shardState
	lists  sync.Pool // *candLists, the folded lists of one build
	minW   sync.Pool // *flathash.Sum64
}

func (a *Arena) getShard() *shardState {
	if a == nil {
		return &shardState{}
	}
	if st, ok := a.shards.Get().(*shardState); ok {
		return st
	}
	return &shardState{}
}

func (a *Arena) putShard(st *shardState) {
	if a != nil {
		a.shards.Put(st)
	}
}

// getLists returns an accumulator with nothing folded into it.
func (a *Arena) getLists() *candLists {
	if a == nil {
		return &candLists{}
	}
	if c, ok := a.lists.Get().(*candLists); ok {
		c.heads, c.ents = c.heads[:0], c.ents[:0]
		return c
	}
	return &candLists{}
}

func (a *Arena) putLists(c *candLists) {
	if a != nil && c != nil {
		a.lists.Put(c)
	}
}

func (a *Arena) getMinW() *flathash.Sum64 {
	if a == nil {
		return &flathash.Sum64{}
	}
	if t, ok := a.minW.Get().(*flathash.Sum64); ok {
		t.Reset()
		return t
	}
	return &flathash.Sum64{}
}

func (a *Arena) putMinW(t *flathash.Sum64) {
	if a != nil {
		a.minW.Put(t)
	}
}

// shardState is the reusable working set of one shard's two stack
// passes. All buffers grow to the trace's alphabet and window bounds and
// then stay allocation-free across reuses.
type shardState struct {
	// win is the top wmax of the pass's LRU stack, and warm finds the
	// spans that warm it at the shard's two edges.
	win  stackdist.Window
	warm stackdist.Distinct

	// partnerSym and offsets record the forward pass: partners of the
	// occurrence at position lo+i live in partnerSym[offsets[i]:
	// offsets[i+1]], ordered by stack depth, so an entry's coverage depth
	// is its index within the occurrence's span plus 2 — no parallel
	// depth array needed.
	partnerSym []int32
	offsets    []int32

	// sd is the epoch-stamped dense merge scratch indexed by symbol (the
	// footprint.Scratch trick): merging a partner is one load and store
	// instead of a linear scan over the merged set. Each entry packs
	// epoch<<32 | depth so the stamp check and the depth compare touch a
	// single word, for any window size.
	sd    []int64
	epoch int32

	// lists holds the shard's candidate lists: per symbol, the partners
	// within wmax at every occurrence of it the shard has processed.
	lists candLists
}

// depthMask selects the depth half of an sd entry; the epoch stamp
// fills the upper 32 bits.
const depthMask = 1<<32 - 1

// prepare sizes the scratch for a trace with symbols in [0, maxSym] and
// windows of up to wmax, and clears the candidate lists.
func (st *shardState) prepare(maxSym int32, wmax int) {
	n := int(maxSym) + 1
	if cap(st.sd) < n {
		st.sd = make([]int64, n)
		// Fresh stamps are zero; epoch must restart above them.
		st.epoch = 0
	} else {
		st.sd = st.sd[:n]
	}
	st.warm.Grow(maxSym)
	st.lists.reset(n)
}

// bumpEpoch invalidates the merge scratch in O(1); on int32 wrap-around
// (once per ~2^31 occurrences) it re-zeros the stamps.
func (st *shardState) bumpEpoch() {
	st.epoch++
	if st.epoch <= 0 {
		full := st.sd[:cap(st.sd)]
		for i := range full {
			full[i] = 0
		}
		st.epoch = 1
	}
}

// mark stamps one occurrence's partners into the scratch at their
// minimal coverage depth: back is its forward-pass span and fwd its
// backward-pass window, both without the occurrence's own symbol, so
// the partner at index k of either lies at depth k+2. Each span holds
// distinct symbols.
func (st *shardState) mark(back, fwd []int32) {
	st.bumpEpoch()
	e := int64(st.epoch) << 32
	sd := st.sd
	for k, y := range back {
		sd[y] = e | int64(k+2)
	}
	for k, y := range fwd {
		if v := sd[y]; v&^depthMask != e || v&depthMask > int64(k+2) {
			sd[y] = e | int64(k+2)
		}
	}
}

// depth returns the merged minimum depth stamped for sym in the current
// epoch, and whether sym was stamped. A symbol beyond the shard's
// alphabet, which an accumulator's list can hold, was never stamped.
func (st *shardState) depth(sym int32) (uint32, bool) {
	if int(sym) >= len(st.sd) {
		return 0, false
	}
	v := st.sd[sym]
	return uint32(v), v&^depthMask == int64(st.epoch)<<32
}

// cover folds the occurrence just marked into sym's candidate list. At
// sym's first occurrence the list becomes the marked set; later, it
// keeps only the candidates the occurrence also has, each at the larger
// of its two depths.
func (st *shardState) cover(sym int32, back, fwd []int32) {
	c := &st.lists
	h := &c.heads[sym]
	if h.n != unseen {
		h.n = st.narrow(c.ents[h.off : h.off+h.n])
		return
	}
	h.off = int32(len(c.ents))
	for _, span := range [2][]int32{back, fwd} {
		for _, y := range span {
			if d, ok := st.depth(y); ok {
				c.ents = append(c.ents, cand{sym: y, depth: d})
				st.sd[y] = 0 // listed; no epoch is 0
			}
		}
	}
	h.n = int32(len(c.ents)) - h.off
}

// narrow filters list in place to the partners stamped this epoch,
// raising each kept entry to the larger depth, and returns the kept
// count.
func (st *shardState) narrow(list []cand) int32 {
	kept := list[:0]
	for _, p := range list {
		if d, ok := st.depth(p.sym); ok {
			p.depth = max(p.depth, d)
			kept = append(kept, p)
		}
	}
	return int32(len(kept))
}

// candLists holds one candidate list per symbol: the partners found
// within wmax of every occurrence of the symbol processed so far, each
// with the largest of its minimal coverage depths over those
// occurrences. Definition 3 makes a pair affine only if each side is
// near every occurrence of the other, so a list is set at its symbol's
// first occurrence and can only shrink; an empty list is final. All
// lists share one slice, each a contiguous run that narrows in place.
type candLists struct {
	heads []listHead // per symbol
	ents  []cand
}

// listHead locates one symbol's list in ents; n is unseen until the
// symbol's first occurrence.
type listHead struct {
	off, n int32
}

// unseen marks the list of a symbol not yet processed.
const unseen = -1

// cand is one candidate partner in a list.
type cand struct {
	sym   int32
	depth uint32 // the largest minimal coverage depth so far
}

// reset empties every list and sizes the heads for symbols [0, n).
func (c *candLists) reset(n int) {
	if cap(c.heads) < n {
		c.heads = make([]listHead, n)
	} else {
		c.heads = c.heads[:n]
	}
	for i := range c.heads {
		c.heads[i] = listHead{n: unseen}
	}
	c.ents = c.ents[:0]
}

// list returns sym's candidates, nil if it has none or was never seen.
func (c *candLists) list(sym int32) []cand {
	if h := c.heads[sym]; h.n > 0 {
		return c.ents[h.off : h.off+h.n]
	}
	return nil
}

// Len returns the number of candidates over all lists.
func (c *candLists) Len() int {
	n := 0
	for _, h := range c.heads {
		n += max(int(h.n), 0)
	}
	return n
}

// Bytes returns the storage the lists hold: the shared slice at its
// capacity plus the heads.
func (c *candLists) Bytes() int {
	return cap(c.ents)*int(unsafe.Sizeof(cand{})) + cap(c.heads)*int(unsafe.Sizeof(listHead{}))
}

// fold intersects a finished shard's lists into c. A symbol the shard
// never saw imposes nothing, a symbol new to c takes a copy of the
// shard's list, and a symbol in both keeps the partners in both lists
// at the larger depth. Intersection and max commute, so shards may fold
// in any order. The intersection stamps the shard's list into the
// shard's scratch, whose alphabet covers every partner the shard lists;
// a later shard can have a larger alphabet than c, so c grows first.
func (c *candLists) fold(st *shardState) {
	src := &st.lists
	for len(c.heads) < len(src.heads) {
		c.heads = append(c.heads, listHead{n: unseen})
	}
	for s, sh := range src.heads {
		h := &c.heads[s]
		switch {
		case sh.n == unseen || h.n == 0:
			// Nothing to impose, or nothing left to narrow.
		case h.n == unseen:
			h.off, h.n = int32(len(c.ents)), sh.n
			c.ents = append(c.ents, src.ents[sh.off:sh.off+sh.n]...)
		default:
			st.bumpEpoch()
			e := int64(st.epoch) << 32
			for _, p := range src.ents[sh.off : sh.off+sh.n] {
				st.sd[p.sym] = e | int64(p.depth)
			}
			h.n = st.narrow(c.ents[h.off : h.off+h.n])
		}
	}
}
