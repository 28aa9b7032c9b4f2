// Package affinity implements the paper's extension of reference affinity
// to whole-program code layout (§II-B).
//
// Two code blocks have w-window affinity (Definition 3) iff every
// occurrence of each has a corresponding occurrence of the other such
// that the footprint of the window formed by the two occurrences is at
// most w. For a given w this induces an affinity partition (Definition
// 4); as w grows from 1 upward the partitions form the affinity
// hierarchy (Definition 5), built here so that lower-level groups take
// precedence (groups at level w merge whole groups of level w-1, which
// both disambiguates the non-unique w-window partition and guarantees a
// hierarchy). The optimized code sequence is a bottom-up traversal of
// the hierarchy.
//
// Two analyses are provided: BuildHierarchyNaive follows Algorithm 1 and
// the definitions directly (quadratic, used for validation), while
// BuildHierarchy is the paper's efficient solution — two LRU stack
// passes that read only the top wmax of the stack, in O(N·wmax) time.
// The efficient analysis has one orchestration, the Feeder: a streamed
// trace is cut into shards as it arrives, and BuildHierarchy hands the
// Feeder a trace already in memory, whose shards it cuts in place.
// The hot path keeps its working set small (DESIGN.md §9): each pass
// keeps just the stack's top wmax, as a move-to-front window; since
// Definition 3 quantifies over every occurrence, each block keeps only
// the list of partners found near all of its occurrences so far, which
// can only shrink, instead of a count per pair it has ever seen;
// per-occurrence partner merging uses an epoch-stamped dense scratch;
// and an optional Arena recycles every buffer across calls.
package affinity

import (
	"context"
	"slices"
	"sort"

	"codelayout/internal/flathash"
	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// Options configures the hierarchy construction.
type Options struct {
	// WMax is the largest window size analyzed. The paper chooses w
	// between 2 and 20 ("to improve efficiency, we choose w between 2
	// and 20"); 0 means the default of 20.
	WMax int
	// Workers bounds the analysis concurrency: 0 means every available
	// core, 1 pins the serial reference path. The built hierarchy is
	// byte-identical for every setting — the stack passes shard the
	// trace with exact LRU warm-up and the per-shard candidate lists
	// merge by commutative intersection and max (DESIGN.md §7).
	Workers int
	// Arena recycles the analysis' internal buffers across calls; nil
	// allocates fresh buffers. It is an execution knob, not a model
	// parameter — the hierarchy is identical either way.
	Arena *Arena
	// FeedShardSpan overrides the span (in trimmed occurrences) of the
	// shards a Feeder cuts from the arriving stream, and of the shards
	// BuildHierarchyCtx cuts from the resident trace; 0 means a default
	// sized to amortize warm-up replay. Like Workers it is an execution
	// knob: the hierarchy is identical for every setting.
	FeedShardSpan int
}

// DefaultWMax matches the paper's upper end of the analyzed window range.
const DefaultWMax = 20

// Partition is the w-window affinity partition of the trace's symbols.
type Partition struct {
	W int
	// Groups lists the affinity groups; within a group and across
	// groups, symbols are ordered by first occurrence in the trace, so
	// the partition (and the sequence derived from it) is deterministic.
	Groups [][]int32
}

// Hierarchy is the affinity hierarchy: one partition per window size
// from 1 to WMax. Levels[i] is the partition for w = i+1.
type Hierarchy struct {
	Levels []Partition
	// firstOcc maps each symbol to its first-occurrence position (dense,
	// -1 when absent), the tie-breaking order used everywhere.
	firstOcc []int32
	// occCount maps each symbol to its occurrence count in the trimmed
	// trace, used to order sibling groups hot-first in Sequence.
	occCount []int64
}

// Partition returns the partition at window size w (1 <= w <= WMax).
func (h *Hierarchy) Partition(w int) Partition { return h.Levels[w-1] }

// WMax returns the largest analyzed window size.
func (h *Hierarchy) WMax() int { return len(h.Levels) }

// Sequence produces the optimized code sequence: a bottom-up traversal
// of the hierarchy, reading the groups off the top level (each group
// internally preserves the lower levels' order, so strongly affine
// blocks stay adjacent — Figure 1's output B1 B4 B2 B3 B5).
//
// The paper leaves the order of sibling groups unspecified ("simply a
// bottom-up traversal"). Here siblings are ordered by hotness band
// (log2 of the per-block occurrence count, descending) and by first
// occurrence within a band. Banding matters for instruction-cache
// packing: rarely executed groups (cold error paths) sink below all hot
// groups instead of interleaving with them by first-occurrence
// accident, while same-hotness groups keep their temporal (phase)
// order.
func (h *Hierarchy) Sequence() []int32 {
	if len(h.Levels) == 0 {
		return nil
	}
	top := h.Levels[len(h.Levels)-1]
	type ranked struct {
		group []int32
		band  int
		first int32
	}
	groups := make([]ranked, len(top.Groups))
	for i, g := range top.Groups {
		var total int64
		for _, s := range g {
			total += h.occCount[s]
		}
		avg := total / int64(len(g))
		band := 0
		for v := avg; v > 0; v >>= 1 {
			band++
		}
		groups[i] = ranked{group: g, band: band, first: h.firstOcc[g[0]]}
	}
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].band != groups[b].band {
			return groups[a].band > groups[b].band
		}
		return groups[a].first < groups[b].first
	})
	var seq []int32
	for _, g := range groups {
		seq = append(seq, g.group...)
	}
	return seq
}

// pairKey packs an unordered symbol pair, smaller symbol first. Pairs
// always hold two distinct symbols, so the packed key is never 0 — the
// empty-slot sentinel of the flat tables.
func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

// BuildHierarchy runs the efficient stack-simulation analysis. For each
// occurrence of a block x, the analysis needs the minimal footprint of a
// window joining the occurrence to some occurrence of each partner y
// (Definition 3 quantifies over every occurrence). Two LRU stack passes
// provide it:
//
//   - forward pass: when x is accessed, a partner y at stack depth d has
//     its last occurrence exactly d distinct blocks back, so the
//     occurrence is covered backward with footprint d;
//   - backward pass over the reversed trace: symmetric, covering the
//     occurrence forward to the next y.
//
// Folding the per-occurrence minima into each block's candidate list —
// the partners present at every occurrence so far, each with the
// largest of its minima — yields, for every pair in both lists, the
// smallest w at which all occurrences of both blocks are covered — i.e.
// the level where the pair becomes affine. Total cost is O(N·wmax)
// time, matching the paper's "efficient solution" in §II-B.
func BuildHierarchy(t *trace.Trace, opt Options) *Hierarchy {
	h, _ := BuildHierarchyCtx(context.Background(), t, opt)
	return h
}

// BuildHierarchyCtx is BuildHierarchy with cancellation: the shards
// poll ctx periodically, so a job deadline can interrupt a long analysis
// mid-phase. On cancellation the partial hierarchy is discarded and
// ctx's error returned. The build is the Feeder run over the resident
// trimmed trace, t itself when it is already trimmed: it cuts
// max(Workers, ⌈n/span⌉) shards of the trace in place (span is
// FeedShardSpan or its default), never writes it, and finishes as Finish
// does. Its affinity.hierarchy span covers the whole build, the stack
// passes included, where a Feeder's covers only what runs after the
// last Feed.
func BuildHierarchyCtx(ctx context.Context, t *trace.Trace, opt Options) (*Hierarchy, error) {
	sp := obs.StartSpan(ctx, "affinity.hierarchy")
	defer sp.End()
	f := NewFeeder(ctx, opt)
	f.feedResident(t.AsTrimmed().Syms, opt.Workers)
	return f.finish(sp)
}

// buildLevels fills hierarchy levels 2..wmax from the per-pair minimal
// affinity windows, merging each level from the one below (lower-level
// precedence, so the chain is sequential) exactly as Algorithm 1's greedy
// merge does (buildLevelsNaive), but at O(sum of degrees) per level
// instead of O(groups²) pair probes. A unit can join a group only if
// every cross pair is affine at w, so it needs an affine partner of its
// own in every member: counting, per group, the unit's affine partners
// there finds the compatible groups — those whose count is
// len(unit)·len(group) — and first-fit takes the one created first.
func buildLevels(h *Hierarchy, wmax int, minW *flathash.Sum64) {
	idx := newPartnerIndex(minW, len(h.firstOcc), wmax)
	m := &levelMerger{groupOf: make([]int32, len(h.firstOcc))}
	prev := h.Levels[0]
	for w := 2; w <= wmax; w++ {
		prev = m.merge(prev, w, idx)
		h.Levels[w-1] = prev
	}
}

// partnerIndex lists each symbol's affine partners in CSR form: symbol
// s's partners are sym[off[s]:off[s+1]], in ascending order of their
// minimal affine window win, so level w reads the prefix with win <= w.
type partnerIndex struct {
	off []int32
	sym []int32
	win []int32
}

// newPartnerIndex builds the index for symbols [0, nsym) from the
// minimal-window table, dropping pairs affine only above wmax.
func newPartnerIndex(minW *flathash.Sum64, nsym, wmax int) *partnerIndex {
	// Bucket the pairs by window, then deal each bucket out to both
	// symbols' lists in window order.
	byWin := make([]int32, wmax+2)
	deg := make([]int32, nsym+1)
	minW.ForEach(func(key, w int64) {
		if w <= int64(wmax) {
			byWin[w+1]++
			deg[(key>>32)+1]++
			deg[(key&0xffffffff)+1]++
		}
	})
	for w := 1; w <= wmax+1; w++ {
		byWin[w] += byWin[w-1]
	}
	pairs := make([]int64, byWin[wmax+1])
	minW.ForEach(func(key, w int64) {
		if w <= int64(wmax) {
			pairs[byWin[w]] = key
			byWin[w]++
		}
	})
	for s := 1; s <= nsym; s++ {
		deg[s] += deg[s-1]
	}
	idx := &partnerIndex{off: deg, sym: make([]int32, 2*len(pairs)), win: make([]int32, 2*len(pairs))}
	fill := append([]int32(nil), deg[:nsym]...)
	for _, key := range pairs {
		x, y := int32(key>>32), int32(key&0xffffffff)
		w := int32(minW.Get(key))
		idx.sym[fill[x]], idx.win[fill[x]] = y, w
		fill[x]++
		idx.sym[fill[y]], idx.win[fill[y]] = x, w
		fill[y]++
	}
	return idx
}

// levelMerger holds the per-level merge scratch, reused across levels.
type levelMerger struct {
	groupOf []int32 // symbol -> its group at this level, -1 until placed
	hits    []int32 // group -> affine partners of the current unit in it
	size    []int32 // group -> member count
	touched []int32 // groups with non-zero hits
	unitOf  []int32 // unit -> its group
}

// merge forms the partition at window w from prev, as the greedy
// mergeLevel does.
func (m *levelMerger) merge(prev Partition, w int, idx *partnerIndex) Partition {
	for _, unit := range prev.Groups {
		for _, s := range unit {
			m.groupOf[s] = -1
		}
	}
	m.size = m.size[:0]
	m.unitOf = m.unitOf[:0]
	for _, unit := range prev.Groups {
		for _, a := range unit {
			for i := idx.off[a]; i < idx.off[a+1] && idx.win[i] <= int32(w); i++ {
				g := m.groupOf[idx.sym[i]]
				if g < 0 {
					continue
				}
				if m.hits[g] == 0 {
					m.touched = append(m.touched, g)
				}
				m.hits[g]++
			}
		}
		best := int32(len(m.size))
		for _, g := range m.touched {
			if int(m.hits[g]) == len(unit)*int(m.size[g]) && g < best {
				best = g
			}
			m.hits[g] = 0
		}
		m.touched = m.touched[:0]
		if best == int32(len(m.size)) {
			m.size = append(m.size, 0)
			if len(m.hits) < len(m.size) {
				m.hits = append(m.hits, 0)
			}
		}
		m.size[best] += int32(len(unit))
		m.unitOf = append(m.unitOf, best)
		for _, s := range unit {
			m.groupOf[s] = best
		}
	}
	// Units join their group in first-occurrence order and stay
	// contiguous in it, and groups are numbered in the first-occurrence
	// order of their first unit, so the partition needs no sorting. The
	// groups share one backing array.
	total := 0
	for _, n := range m.size {
		total += int(n)
	}
	out := Partition{W: w, Groups: make([][]int32, len(m.size))}
	members := make([]int32, total)
	for g, n := range m.size {
		out.Groups[g] = members[:0:n]
		members = members[n:]
	}
	for u, unit := range prev.Groups {
		g := m.unitOf[u]
		out.Groups[g] = append(out.Groups[g], unit...)
	}
	return out
}

// minShardSpan is the smallest shard the sharded stack passes accept, in
// multiples of wmax: warm-up replays up to wmax distinct symbols, so a
// shard must cover several times that to amortize the duplicated work.
const minShardSpan = 4

// defaultShardSpan is the shard span when Options leaves FeedShardSpan
// unset: large enough that the warm-up replay (up to wmax distinct
// symbols on each side) is noise against the shard body, small enough
// that a shard's forward-pass spans (wmax−1 symbols per occurrence) stay
// a few MB.
const defaultShardSpan = 1 << 16

// cancelCheckMask throttles the in-shard context checks: the shard loops
// poll ctx.Err() once per (cancelCheckMask+1) occurrences.
const cancelCheckMask = 0x3FFF

// reduceMinW reads the minimal-affine-window table off the folded
// candidate lists: a pair {x, y} is affine once y covers every
// occurrence of x and x every occurrence of y, that is, once each is in
// the other's list, and it becomes affine at the larger of the two
// lists' depths. The lists intersect to the same sets and depths over
// any contiguous sharding, so every sharding reduces to the same table.
func reduceMinW(c *candLists, arena *Arena) *flathash.Sum64 {
	minW := arena.getMinW()
	for x := int32(0); x < int32(len(c.heads)); x++ {
		for _, p := range c.list(x) {
			if p.sym < x {
				continue // visited from p.sym's list
			}
			for _, q := range c.list(p.sym) {
				if q.sym == x {
					// Depths are at least 2, so 0 (the table's absent
					// value) keeps meaning "never affine".
					minW.Set(pairKey(x, p.sym), int64(max(p.depth, q.depth)))
					break
				}
			}
		}
	}
	return minW
}

// shardPairHists runs the two stack passes over positions [lo, hi) and
// narrows the shard's candidate lists: for each occurrence of x, x's
// list keeps the partners within wmax of it, each at the larger of its
// minimal coverage depths.
func shardPairHists(ctx context.Context, st *shardState, syms []int32, maxSym int32, wmax, lo, hi int) error {
	st.prepare(maxSym, wmax)

	// Pass 1 (forward): snapshot for each position the top-wmax window
	// below the current symbol (the stack top, depth 1) straight into the
	// span buffer, in depth order, so the partner at span index k has
	// backward-coverage depth k+2. The warm-up replays the span holding
	// the last wmax distinct symbols before lo, which fully determines the
	// stack's top wmax.
	if cap(st.offsets) < hi-lo+1 {
		st.offsets = make([]int32, hi-lo+1)
	} else {
		st.offsets = st.offsets[:hi-lo+1]
	}
	// Each span holds at most wmax-1 entries, so sizing the buffer up
	// front turns every snapshot append into a plain copy (no growth
	// copies).
	if spanCap := (hi - lo) * (wmax - 1); cap(st.partnerSym) < spanCap {
		st.partnerSym = make([]int32, 0, spanCap)
	} else {
		st.partnerSym = st.partnerSym[:0]
	}
	win := &st.win
	win.Reset(wmax, maxSym)
	for i := st.warm.Before(syms, lo, wmax); i < lo; i++ {
		win.Access(syms[i])
	}
	for i := lo; i < hi; i++ {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		win.Access(syms[i])
		st.offsets[i-lo] = int32(len(st.partnerSym))
		st.partnerSym = append(st.partnerSym, win.Syms()[1:]...)
	}
	st.offsets[hi-lo] = int32(len(st.partnerSym))

	// Pass 2 (backward, over the reversed trace): merge forward coverage
	// with pass 1's backward coverage per occurrence, and fold the minima
	// into the occurrence's candidate list. The warm-up replays, in
	// reverse order, the span holding the first wmax distinct symbols at
	// or after hi. The merge scratch is the epoch-stamped dense array of
	// shardState: one load and store per partner instead of a linear
	// scan over the merged set. A symbol whose list is already empty
	// needs no merge at all.
	win.Reset(wmax, maxSym)
	for i := st.warm.After(syms, hi, wmax) - 1; i >= hi; i-- {
		win.Access(syms[i])
	}
	for i := hi - 1; i >= lo; i-- {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cur := syms[i]
		win.Access(cur)
		if st.lists.heads[cur].n == 0 {
			continue
		}
		// Window entry 0 is cur itself.
		back, fwd := st.partnerSym[st.offsets[i-lo]:st.offsets[i-lo+1]], win.Syms()[1:]
		st.mark(back, fwd)
		st.cover(cur, back, fwd)
	}
	return nil
}

// newHierarchyShell prepares the hierarchy with the w=1 partition
// (every block its own group, per Definition 5) and first-occurrence
// ordering, from one batch pass over the trace.
func newHierarchyShell(tt *trace.Trace, wmax int) *Hierarchy {
	firstOcc, occCount, order := symbolTables(tt.Syms)
	return newHierarchyShellFrom(firstOcc, occCount, order, wmax)
}

// symbolTables is the batch pass over a trimmed trace: each symbol's
// first-occurrence position (-1 when absent) and occurrence count, and
// the distinct symbols in first-occurrence order — found directly, no
// sort needed. All three are nil for an empty trace.
func symbolTables(syms []int32) (firstOcc []int32, occCount []int64, order []int32) {
	if len(syms) == 0 {
		return nil, nil, nil
	}
	n := int(slices.Max(syms)) + 1
	firstOcc = make([]int32, n)
	occCount = make([]int64, n)
	for i := range firstOcc {
		firstOcc[i] = -1
	}
	for i, s := range syms {
		if firstOcc[s] < 0 {
			firstOcc[s] = int32(i)
			order = append(order, s)
		}
		occCount[s]++
	}
	return firstOcc, occCount, order
}

// newHierarchyShellFrom builds the shell from already-accumulated
// first-occurrence and count tables plus the symbols in first-occurrence
// order — the form the streaming Feeder maintains incrementally.
func newHierarchyShellFrom(firstOcc []int32, occCount []int64, order []int32, wmax int) *Hierarchy {
	h := &Hierarchy{Levels: make([]Partition, wmax), firstOcc: firstOcc, occCount: occCount}
	base := Partition{W: 1, Groups: make([][]int32, len(order))}
	for i, s := range order {
		base.Groups[i] = []int32{s}
	}
	h.Levels[0] = base
	for w := 2; w <= wmax; w++ {
		h.Levels[w-1] = base // overwritten by the builder; harmless default
	}
	return h
}
