// Package cmg implements the Conflict Miss Graph model of Kalamatianos &
// Kaeli ("Temporal-based procedure reordering for improved instruction
// cache performance", HPCA 1998), which the paper's related work names
// as TRG's sibling: "a similar model is the Conflict Miss Graph (CMG),
// used for function reordering".
//
// Where TRG counts every interleaving between two blocks' successive
// occurrences, the CMG weights an edge by the *worst-case number of
// conflict misses* the pair could suffer if they mapped to the same
// cache set: a completed alternation (A evicts B, then B evicts A)
// costs at most two misses, while a one-sided interleaving — a block
// executed once between another's reuses — costs none beyond the cold
// miss. Cold code interleaved with hot loops therefore gains no weight
// in the CMG although the TRG counts it, which is the behavioural
// difference the comparison experiment quantifies.
//
// Ordering uses the same slot-based reduction as the TRG (the paper
// adapts Gloy-Smith's placement to produce an order; the CMG paper's own
// color-based placement reduces to the same slot assignment under the
// uniform-block-size assumption).
package cmg

import (
	"codelayout/internal/flathash"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
	"codelayout/internal/trg"
)

// Build constructs the conflict miss graph of a code trace.
// windowBlocks bounds the liveness window in distinct code blocks (use
// the same 2C-derived bound as the TRG); 0 means unbounded.
//
// The construction walks the trimmed trace with the top of an LRU
// stack, as deep as the window (stackdist.Window). When block A is
// re-accessed within the window, each distinct block X interleaved
// since A's previous occurrence contributes conflict weight; unlike
// the TRG, a consecutive run of re-accesses between the same pair adds
// at most 2 per alternation (the worst-case misses of a same-set pair),
// implemented by counting each (A, X) alternation once per direction
// change rather than once per interleaved occurrence.
func Build(t *trace.Trace, windowBlocks int) *trg.Graph {
	tt := t.Trimmed()
	g := trg.NewGraph()
	if len(tt.Syms) == 0 {
		return g
	}
	maxSym := tt.MaxSym()
	limit := windowBlocks
	if limit <= 0 {
		limit = int(maxSym) + 1
	}
	var win stackdist.Window
	win.Reset(limit, maxSym)
	// lastDir remembers, per pair, which side was accessed last when
	// weight was added, so a strict alternation A X A X adds weight once
	// per direction change. Stored as symbol+1 in a flat table (0 is the
	// table's absent value).
	lastDir := &flathash.Sum64{}

	for _, cur := range tt.Syms {
		g.AddNode(cur)
		// The blocks above cur's previous occurrence are the blocks
		// interleaved since it.
		if d := win.Access(cur); d > 0 {
			for _, x := range win.Syms()[1 : d+1] {
				key := pairKey(cur, x)
				// Worst-case conflict: a same-set pair can lose at most
				// two lines per *completed alternation* (cur evicted x,
				// then x evicted cur). The first one-sided interleaving
				// only arms the direction; weight accrues when the
				// direction flips. A block that executes once between
				// another's reuses therefore carries no worst-case
				// conflict — the key difference from the TRG, which
				// counts every interleaving.
				if last := lastDir.Get(key); last != 0 && last != int64(cur)+1 {
					g.AddWeight(cur, x, 2)
				}
				lastDir.Set(key, int64(cur)+1)
			}
		}
	}
	return g
}

func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

// Sequence runs the full CMG pipeline with TRG-compatible parameters:
// build the graph with the parameter-derived window, reduce with the
// parameter-derived slot count.
func Sequence(t *trace.Trace, p trg.Params) []int32 {
	return trg.Reduce(Build(t, p.WindowBlocks()), p.Slots())
}
