package trg

import (
	"context"
	"sync"

	"codelayout/internal/parallel"
	"codelayout/internal/stackdist"
)

// defaultFeedShardSpan is the streamed shard span when the caller leaves
// it unset: large enough that the warm-up replay (up to windowBlocks
// distinct symbols) is noise against the shard body.
const defaultFeedShardSpan = 1 << 16

// Feeder constructs the TRG incrementally over a trace arriving in
// chunks. It is the package's one shard/fold orchestration: BuildCtx
// runs it over a trace already in memory, cutting the shards in place.
// Per-shard rows add exactly for ANY contiguous sharding, in any order
// (weights sum), and the node order is the feeder's own first-occurrence
// list, so arrival-cut shards land on the graph one serial pass over the
// concatenated input builds: the same node order and edge weights.
//
// Unlike the affinity analysis, the construction pass only warms
// backward (the interleaving scan looks at the stack of past accesses),
// so a shard dispatches the moment its body fills — no wait for
// post-cut symbols. The slab kept in memory is bounded by the shard
// span plus the warm span; dispatched slabs recycle through a pool once
// their shard completes. A shard takes its working state from the
// arena when it starts, folds its rows into the feeder's one
// accumulated graph the moment it finishes, and hands the state
// straight back, so memory before Finish is bounded by the shard span,
// the FeedPool's 2×workers in-flight cap and the accumulated graph —
// not by the trace length.
//
// A Feeder is not safe for concurrent use; call Feed from one
// goroutine, then exactly one of Finish or Abort.
type Feeder struct {
	limit       int
	shardTarget int
	arena       *Arena
	pool        *parallel.FeedPool

	slab []int32 // warm context [0,body) + undispatched body [body,len)
	body int

	prev   int32 // last accepted symbol, for cross-chunk trimming
	n      int   // trimmed occurrences accepted so far
	maxSym int32
	known  []bool  // symbols accepted so far
	order  []int32 // symbols in first-occurrence order

	seen stackdist.Distinct // the warm-up scan at a cut

	mu sync.Mutex // guards g, which the pool's workers fold into
	g  *Graph     // the rows of every shard finished so far; nil before the first

	slabPool sync.Pool // *[]int32
	err      error
}

// NewFeeder prepares a streaming build bound to ctx. windowBlocks and
// workers are interpreted as by BuildCtx; shardSpan overrides the
// arrival-cut shard span (0 means a default sized to amortize warm-up).
// A windowBlocks <= 0 (unbounded window) cannot stream — the warm span
// would be the whole history — so the feeder degrades to a single shard
// cut at Finish: correct, but holding the whole trace.
func NewFeeder(ctx context.Context, windowBlocks, workers, shardSpan int, arena *Arena) *Feeder {
	limit := windowBlocks
	target := shardSpan
	if limit <= 0 {
		limit = 1 << 30 // effectively: never cut before Finish
		target = 1 << 30
	}
	if target <= 0 {
		target = defaultFeedShardSpan
	}
	if target < 4*limit {
		target = 4 * limit
	}
	return &Feeder{
		limit:       limit,
		shardTarget: target,
		arena:       arena,
		pool:        parallel.NewFeedPool(ctx, workers),
		prev:        -1,
	}
}

// Feed appends one chunk of the trace. Chunk boundaries are irrelevant:
// feeding any split of a trace yields the same graph. A non-nil error
// means a dispatched shard failed (ctx canceled); the caller should
// stop feeding and call Abort.
func (f *Feeder) Feed(chunk []int32) error {
	if f.err != nil {
		return f.err
	}
	for _, s := range chunk {
		if s == f.prev {
			continue // trimming, as BuildCtx does up front
		}
		f.prev = s
		if int(s) >= len(f.known) {
			f.known = append(f.known, make([]bool, int(s)+1-len(f.known))...)
			f.seen.Grow(s)
		}
		if s > f.maxSym {
			f.maxSym = s
		}
		if !f.known[s] {
			f.known[s] = true
			f.order = append(f.order, s)
		}
		f.n++
		f.slab = append(f.slab, s)
		if len(f.slab)-f.body >= f.shardTarget {
			if err := f.dispatch(len(f.slab)); err != nil {
				f.err = err
				return err
			}
		}
	}
	return nil
}

// feedResident feeds a whole trimmed trace held in memory, in place of
// Feed. One pass takes the alphabet and the first-occurrence order, and
// the trace is cut into one shard per worker (Chunks never cuts a shard
// under 4·limit, so an unbounded window keeps one shard), each submitted
// against syms itself so its warm-up replays the real history. syms
// stays the caller's: no shard writes it and the slab pool never takes
// it. A failed submission is kept for Finish.
func (f *Feeder) feedResident(syms []int32, workers int) {
	for _, s := range syms {
		if int(s) >= len(f.known) {
			f.known = append(f.known, make([]bool, int(s)+1-len(f.known))...)
		}
		if !f.known[s] {
			f.known[s] = true
			f.order = append(f.order, s)
		}
	}
	f.maxSym, f.n = int32(len(f.known)-1), len(syms)
	for _, c := range parallel.Chunks(f.n, parallel.Workers(workers), 4*f.limit) {
		if err := f.submit(syms, c[0], c[1], false); err != nil {
			f.err = err
			return
		}
	}
}

// N returns the number of trimmed occurrences accepted so far — the
// trace length the construction sees, matching the input's
// Trimmed().Len().
func (f *Feeder) N() int { return f.n }

func (f *Feeder) getSlab(capHint int) []int32 {
	if v := f.slabPool.Get(); v != nil {
		return (*v.(*[]int32))[:0]
	}
	return make([]int32, 0, capHint)
}

func (f *Feeder) putSlab(s []int32) {
	f.slabPool.Put(&s)
}

// dispatch freezes the current slab, hands shard [f.body, hi) to the
// pool, and starts a fresh slab at the shard's warm-up boundary. The
// slab-start invariant (each slab begins at such a boundary or at the
// trace start) makes the slab-local scan agree with the full-trace one.
func (f *Feeder) dispatch(hi int) error {
	lo, p := f.body, f.seen.Before(f.slab, hi, f.limit)
	slab := f.slab
	next := append(f.getSlab(f.shardTarget+f.limit), slab[p:]...)
	err := f.submit(slab, lo, hi, true)
	f.slab = next
	f.body = hi - p
	return err
}

// submit hands shard [lo, hi) of slab to the pool. The task borrows a
// state only while it runs and folds the shard's rows into the
// accumulated graph as soon as its pass finishes. A slab the feeder
// owns goes back to the slab pool once its shard is done; a resident
// trace is not the feeder's to recycle.
func (f *Feeder) submit(slab []int32, lo, hi int, owned bool) error {
	maxSym, limit := f.maxSym, f.limit
	return f.pool.Submit(func(ctx context.Context) error {
		st := f.arena.getShard()
		defer f.arena.putShard(st)
		if st.g == nil {
			st.g = f.arena.GetGraph()
		} else {
			st.g.Reset()
		}
		st.g.ensureSym(maxSym)
		err := buildShard(ctx, st, st.g, slab, maxSym, limit, lo, hi)
		if owned {
			f.putSlab(slab)
		}
		if err != nil {
			return err
		}
		f.fold(st)
		return nil
	})
}

// fold adds a finished shard's rows into the accumulated graph. The
// first shard to finish gives its partial graph as the accumulator and
// leaves its state with no graph, so a one-shard build holds one graph;
// the state draws a pooled graph only when it next runs a shard.
func (f *Feeder) fold(st *buildState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.g == nil {
		f.g, st.g = st.g, nil
		return
	}
	f.g.rows.MergeFrom(&st.g.rows, addWeight)
}

// Finish seals the stream: the remaining body becomes the last shard,
// and once every shard has folded its rows, the accumulated graph takes
// the feeder's first-occurrence node order.
// The caller owns the returned graph (recycle it via Arena.PutGraph).
func (f *Feeder) Finish(ctx context.Context) (*Graph, error) {
	if f.err == nil && f.body < len(f.slab) {
		if err := f.submit(f.slab, f.body, len(f.slab), true); err != nil {
			f.err = err
		}
		f.slab = nil
	}
	if err := f.pool.Wait(); err != nil {
		f.release()
		return nil, err
	}
	if err := f.err; err != nil {
		f.release()
		return nil, err
	}
	g := f.g
	f.g = nil
	if g == nil {
		g = f.arena.GetGraph() // empty trace
	}
	g.ensureSym(f.maxSym)
	g.setNodes(f.order)
	f.release()
	return g, nil
}

// Abort discards the stream: it drains in-flight shards and recycles
// their buffers. Call it instead of Finish when the job is canceled.
func (f *Feeder) Abort() {
	_ = f.pool.Wait()
	f.release()
}

func (f *Feeder) release() {
	f.arena.PutGraph(f.g)
	f.g = nil
	f.slab = nil
}
