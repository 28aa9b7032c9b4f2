package affinity

import (
	"sync"

	"codelayout/internal/flathash"
	"codelayout/internal/stackdist"
)

// Arena recycles the analysis' internal buffers across BuildHierarchy
// calls: per-shard LRU stacks, partner lists, epoch-stamped scratch and
// the coverage rows. A long-lived caller (layoutd running
// repeated optimization jobs) holds one Arena and passes it through
// Options; after the first few calls warm the pools, the stack-pass
// kernel allocates nothing per job. The zero value is ready to use and
// safe for concurrent use — shards borrow from an internal sync.Pool, so
// concurrent builds simply warm more pool entries.
type Arena struct {
	shards sync.Pool // *shardState
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
	stack stackdist.LRUStack

	// topk is the reusable top-w snapshot buffer (stackdist.AppendTopK).
	topk []int32

	// partnerSym and offsets record the forward pass: partners of the
	// occurrence at position lo+i live in partnerSym[offsets[i]:
	// offsets[i+1]], ordered by stack depth, so an entry's coverage depth
	// is its index within the occurrence's span plus 2 — no parallel
	// depth array needed.
	partnerSym []int32
	offsets    []int32

	// sd/touched form the epoch-stamped dense merge scratch indexed by
	// symbol (the footprint.Scratch trick): merging a partner is one load
	// and store instead of a linear scan over the merged set. Each sd
	// entry packs epoch<<32 | depth so the stamp check and the depth
	// compare touch a single word, for any window size.
	sd      []int64
	touched []int32
	epoch   int32

	// rows is the shard's coverage: row x, partner y holds how many of
	// x's occurrences y covers within wmax, and the largest of their
	// minimal coverage depths.
	rows flathash.Rows[cover]
}

// cover is one directed row entry of the coverage rows.
type cover struct {
	count uint32 // occurrences of the row symbol the partner covers
	depth uint32 // the largest minimal coverage depth among them
}

// mergeCover folds one shard's coverage of a pair into another's: counts
// add and depths take the max, so any contiguous sharding sums to the
// serial rows.
func mergeCover(dst *cover, src cover) {
	dst.count += src.count
	dst.depth = max(dst.depth, src.depth)
}

// depthMask selects the depth half of an sd entry; the epoch stamp
// fills the upper 32 bits.
const depthMask = 1<<32 - 1

// prepare sizes the scratch for a trace with symbols in [0, maxSym] and
// windows of up to wmax, and clears the coverage rows.
func (st *shardState) prepare(maxSym int32, wmax int) {
	n := int(maxSym) + 1
	if cap(st.sd) < n {
		st.sd = make([]int64, n)
		// Fresh stamps are zero; epoch must restart above them.
		st.epoch = 0
	} else {
		st.sd = st.sd[:n]
	}
	if cap(st.topk) < wmax {
		st.topk = make([]int32, 0, wmax)
	}
	st.touched = st.touched[:0]
	st.rows.Reset(n)
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
	st.touched = st.touched[:0]
}

// add merges partner sym with coverage depth d into the occurrence's
// scratch set, keeping the minimum depth per partner.
func (st *shardState) add(sym int32, d int) {
	e := int64(st.epoch) << 32
	v := st.sd[sym]
	if v&^depthMask == e {
		if int64(d) < v&depthMask {
			st.sd[sym] = e | int64(d)
		}
		return
	}
	st.sd[sym] = e | int64(d)
	st.touched = append(st.touched, sym)
}

// depthOf returns the merged minimum depth recorded for sym in the
// current epoch; sym must have been added this epoch.
func (st *shardState) depthOf(sym int32) uint32 {
	return uint32(st.sd[sym])
}

// warmBeforeScratch is warmBefore using the epoch scratch instead of a
// per-call map, so pooled shards warm up without allocating.
func (st *shardState) warmBeforeScratch(syms []int32, lo, need int) int {
	st.bumpEpoch()
	e := int64(st.epoch) << 32
	count := 0
	p := lo
	for p > 0 && count < need {
		p--
		s := syms[p]
		if st.sd[s]&^depthMask != e {
			st.sd[s] = e
			count++
		}
	}
	return p
}

// warmAfterScratch is warmAfter on the epoch scratch.
func (st *shardState) warmAfterScratch(syms []int32, hi, need int) int {
	st.bumpEpoch()
	e := int64(st.epoch) << 32
	count := 0
	q := hi
	for q < len(syms) && count < need {
		s := syms[q]
		if st.sd[s]&^depthMask != e {
			st.sd[s] = e
			count++
		}
		q++
	}
	return q
}
