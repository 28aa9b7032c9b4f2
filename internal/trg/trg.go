// Package trg implements the temporal relationship graph model of §II-C:
// Gloy & Smith's TRG construction adapted by the paper, and the paper's
// own TRG reduction (Algorithm 2) that produces a new code order instead
// of inserting inter-function space.
//
// In the TRG (Definition 6), nodes are code blocks and an edge's weight
// counts potential cache conflicts: the times two successive occurrences
// of one endpoint are interleaved with at least one occurrence of the
// other, and vice versa. Construction only examines interleavings inside
// a bounded footprint window (the paper follows Gloy & Smith's advice of
// twice the cache size).
//
// The construction's hot path mirrors the affinity analysis (DESIGN.md
// §9): each block has a row, a small open-addressed table counting its
// interleavings per partner, so one access's updates stay in one
// cache-resident row and an edge weighs the sum of its two directions;
// the LRU stack is kept only as deep as the window, in a
// stackdist.Window, whose access leaves the interleaved blocks in place
// as a slice; and an optional Arena recycles all per-shard state across
// builds. The reduction reads its adjacency and its edge order straight
// from the rows. The construction has one shard/fold orchestration, the
// Feeder: a streamed trace is cut into shards as it arrives, and
// BuildCtx hands the Feeder a trace already in memory, whose shards it
// cuts in place.
package trg

import (
	"context"
	"sort"
	"sync"

	"codelayout/internal/flathash"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
)

// Graph is a weighted undirected temporal relationship graph. It keeps
// its weights as directed rows: row a, partner b holds the weight added
// from a's side — in a built graph, the times b interleaved two
// successive occurrences of a — and the undirected edge weight is the
// sum of the two directions.
type Graph struct {
	rows flathash.Rows[int64]
	// nodes lists the distinct symbols in first-occurrence order; the
	// order makes every downstream step deterministic.
	nodes []int32
	// seen is the dense membership index over node IDs.
	seen []bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// Reset clears the graph for reuse, keeping backing capacity.
func (g *Graph) Reset() {
	g.rows.Reset(len(g.seen))
	g.nodes = g.nodes[:0]
	for i := range g.seen {
		g.seen[i] = false
	}
}

func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

// ensureSym grows the dense membership index and the rows to cover
// symbol s.
func (g *Graph) ensureSym(s int32) {
	if int(s) >= len(g.seen) {
		grown := make([]bool, int(s)+1)
		copy(grown, g.seen)
		g.seen = grown
		g.rows.Extend(len(grown))
	}
}

// AddNode registers a node even if it never gains an edge, so that the
// reduction's output remains a permutation of all code blocks.
func (g *Graph) AddNode(s int32) {
	g.ensureSym(s)
	if !g.seen[s] {
		g.seen[s] = true
		g.nodes = append(g.nodes, s)
	}
}

// AddWeight adds delta to the weight of edge (a, b).
func (g *Graph) AddWeight(a, b int32, delta int64) {
	if a == b {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	*g.rows.Ref(a, b) += delta
}

// Weight returns the weight of edge (a, b), 0 if absent.
func (g *Graph) Weight(a, b int32) int64 {
	if a == b {
		return 0
	}
	ab, _ := g.rows.Get(a, b)
	ba, _ := g.rows.Get(b, a)
	return ab + ba
}

// Nodes returns the node list in first-occurrence order.
func (g *Graph) Nodes() []int32 { return g.nodes }

// NumEdges returns the number of edges with non-zero weight.
func (g *Graph) NumEdges() int {
	n := 0
	g.forEachEdge(func(_, _ int32, _ int64) { n++ })
	return n
}

// forEachEdge visits every non-zero edge once, smaller symbol first,
// with the summed weight of its two directions. Rows are read in symbol
// order; an edge is visited from its smaller symbol's row, or from the
// larger one's when the smaller's row lacks it.
func (g *Graph) forEachEdge(f func(a, b int32, w int64)) {
	for a := int32(0); a < int32(g.rows.NumRows()); a++ {
		for _, e := range g.rows.Row(a) {
			b, w := e.Partner, e.Val
			if b < 0 {
				continue
			}
			back, ok := g.rows.Get(b, a)
			switch {
			case a < b:
				w += back
			case ok:
				continue // visited from b's row
			}
			if w != 0 {
				f(min(a, b), max(a, b), w)
			}
		}
	}
}

// Edge is one weighted edge, used by tests and diagnostics.
type Edge struct {
	A, B   int32
	Weight int64
}

// Edges returns all edges sorted by descending weight, then by node IDs.
func (g *Graph) Edges() []Edge {
	var out []Edge
	g.forEachEdge(func(a, b int32, w int64) {
		out = append(out, Edge{A: a, B: b, Weight: w})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Arena recycles the construction's working set — per-shard stack
// windows, epoch scratch and partial graphs — across Build
// calls, plus whole result graphs returned via PutGraph. The zero value
// is ready to use and safe for concurrent use.
type Arena struct {
	shards sync.Pool // *buildState
	graphs sync.Pool // *Graph
}

func (a *Arena) getShard() *buildState {
	if a == nil {
		return &buildState{}
	}
	if st, ok := a.shards.Get().(*buildState); ok {
		return st
	}
	return &buildState{}
}

func (a *Arena) putShard(st *buildState) {
	if a != nil {
		a.shards.Put(st)
	}
}

// GetGraph returns a cleared graph, recycled if one is pooled.
func (a *Arena) GetGraph() *Graph {
	if a == nil {
		return NewGraph()
	}
	if g, ok := a.graphs.Get().(*Graph); ok {
		g.Reset()
		return g
	}
	return NewGraph()
}

// PutGraph recycles a graph the caller no longer references.
func (a *Arena) PutGraph(g *Graph) {
	if a != nil && g != nil {
		a.graphs.Put(g)
	}
}

// buildState is the reusable working set of one shard's construction
// pass.
type buildState struct {
	// win is the top of the pass's LRU stack, as deep as the window, and
	// warm finds the span that warms it at the shard's start.
	win  stackdist.Window
	warm stackdist.Distinct
	// g is the graph the shard builds into; nil once a Feeder's first
	// fold has taken it, until the state runs its next shard.
	g *Graph
}

// Build constructs the TRG of a code trace. windowBlocks bounds the
// examined interleaving window in distinct code blocks (the footprint
// window "2C" of §II-C divided by the uniform block size); 0 means
// unbounded. At each access, if the block's previous occurrence lies
// within the window, every distinct block interleaved between the two
// occurrences receives one conflict count. The stack is kept only as
// deep as the window (stackdist.Window), so an access finds the block
// and the blocks interleaved since its previous occurrence in at most
// windowBlocks steps.
//
// Build uses every available core; the graph is identical to the serial
// construction (see BuildWorkers).
func Build(t *trace.Trace, windowBlocks int) *Graph {
	return BuildWorkers(t, windowBlocks, 0)
}

// BuildWorkers is Build with bounded concurrency: 0 workers means every
// available core, 1 pins the serial reference path.
func BuildWorkers(t *trace.Trace, windowBlocks, workers int) *Graph {
	g, _ := BuildCtx(context.Background(), t, windowBlocks, workers, nil)
	return g
}

// BuildCtx is BuildWorkers with cancellation and buffer reuse. It is
// the Feeder run over the resident trimmed trace, t itself when it is
// already trimmed: the trace is cut in place, and never written, into
// one contiguous shard per worker (a single shard at Workers
// 1, or when the trace is too short to split, or the window unbounded),
// each shard warms a private stack window by replaying the span holding
// the last windowBlocks distinct symbols before it, so its per-access
// interleaving views equal the full-trace simulation, and the shard rows
// add up (addition commutes) under the global first-occurrence node
// order. The shards poll ctx, so a job deadline can interrupt a long
// construction; on cancellation the partial graph is discarded and
// ctx's error returned. arena may be nil.
func BuildCtx(ctx context.Context, t *trace.Trace, windowBlocks, workers int, arena *Arena) (*Graph, error) {
	f := NewFeeder(ctx, windowBlocks, workers, 0, arena)
	f.feedResident(t.AsTrimmed().Syms, workers)
	return f.Finish(ctx)
}

// setNodes replaces g's node list with order, which lists every symbol
// of g's edges in first-occurrence order.
func (g *Graph) setNodes(order []int32) {
	for _, s := range g.nodes {
		g.seen[s] = false
	}
	g.nodes = g.nodes[:0]
	for _, s := range order {
		g.AddNode(s)
	}
}

func addWeight(dst *int64, src int64) { *dst += src }

// cancelCheckMask throttles the in-shard context checks: the shard loop
// polls ctx.Err() once per (cancelCheckMask+1) accesses.
const cancelCheckMask = 0x3FFF

// buildShard accumulates the conflict counts of accesses [lo, hi) into
// g, warming the stack window so the shard sees exactly the stack prefix
// the full simulation would.
func buildShard(ctx context.Context, st *buildState, g *Graph, syms []int32, maxSym int32, limit, lo, hi int) error {
	win := &st.win
	win.Reset(limit, maxSym)
	st.warm.Grow(maxSym)
	for i := st.warm.Before(syms, lo, limit); i < lo; i++ {
		win.Access(syms[i])
	}
	for i := lo; i < hi; i++ {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cur := syms[i]
		g.AddNode(cur)
		// The blocks above cur's previous occurrence are exactly the
		// blocks interleaved between the two occurrences, and each counts
		// once in cur's row. If cur is not within the window, the previous
		// occurrence is too far away (or absent) and contributes nothing.
		// Every interleaved block was accessed before cur, so it is
		// already a node of this shard or of an earlier one.
		if d := win.Access(cur); d > 0 {
			row := g.rows.Cursor(cur)
			for _, x := range win.Syms()[1 : d+1] {
				*row.Ref(x)++
			}
		}
	}
	return nil
}
