package trg

import (
	"context"
	"sync"

	"codelayout/internal/parallel"
)

// defaultFeedShardSpan is the streamed shard span when the caller leaves
// it unset: large enough that the warm-up replay (up to windowBlocks
// distinct symbols) is noise against the shard body.
const defaultFeedShardSpan = 1 << 16

// Feeder constructs the TRG incrementally over a trace arriving in
// chunks, producing a graph whose node order and edge weights are
// identical to BuildCtx over the concatenated input: per-shard partial
// graphs merge exactly for ANY contiguous sharding (weights sum, node
// lists concatenate in trace order), so arrival-cut shards land on the
// same graph the buffered build computes.
//
// Unlike the affinity analysis, the construction pass only warms
// backward (the interleaving scan looks at the stack of past accesses),
// so a shard dispatches the moment its body fills — no wait for
// post-cut symbols. The slab kept in memory is bounded by the shard
// span plus the warm span; dispatched slabs recycle through a pool once
// their shard completes.
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

	seen      []int64 // epoch stamps for the warm-start scan
	seenEpoch int64

	states   []*buildState // dispatched shards, in trace order
	slabPool sync.Pool     // *[]int32
	err      error
}

// NewFeeder prepares a streaming build bound to ctx. windowBlocks and
// workers are interpreted as by BuildCtx; shardSpan overrides the
// arrival-cut shard span (0 means a default sized to amortize warm-up).
// A windowBlocks <= 0 (unbounded window) cannot stream — the warm span
// would be the whole history — so the feeder degrades to a single shard
// cut at Finish: correct, but with buffered-path memory.
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
		if int(s) >= len(f.seen) {
			n := int(s) + 1
			if c := 2 * len(f.seen); n < c {
				n = c
			}
			seen := make([]int64, n)
			copy(seen, f.seen)
			f.seen = seen
		}
		if s > f.maxSym {
			f.maxSym = s
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

// N returns the number of trimmed occurrences accepted so far — the
// trace length the construction sees, matching Trimmed().Len() of the
// buffered path.
func (f *Feeder) N() int { return f.n }

// warmStart is warmStart over the slab using the feeder's stamps: the
// largest p such that slab[p:hi] holds limit distinct symbols, or 0.
// The slab-start invariant (each slab begins at a warm-up cut or at the
// trace start) makes the slab-local scan agree with the full-trace one.
func (f *Feeder) warmStart(hi int) int {
	f.seenEpoch++
	count, p := 0, hi
	for p > 0 && count < f.limit {
		p--
		s := f.slab[p]
		if f.seen[s] != f.seenEpoch {
			f.seen[s] = f.seenEpoch
			count++
		}
	}
	return p
}

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
// pool, and starts a fresh slab at the shard's warm-up boundary.
func (f *Feeder) dispatch(hi int) error {
	lo, p := f.body, f.warmStart(hi)
	slab, maxSym, limit := f.slab, f.maxSym, f.limit
	next := append(f.getSlab(f.shardTarget+f.limit), slab[p:]...)
	st := f.arena.getShard()
	if st.g == nil {
		st.g = NewGraph()
	} else {
		st.g.Reset()
	}
	st.g.ensureSym(maxSym)
	f.states = append(f.states, st)
	err := f.pool.Submit(func(ctx context.Context) error {
		err := buildShard(ctx, st, st.g, slab, maxSym, limit, lo, hi)
		f.putSlab(slab)
		return err
	})
	f.slab = next
	f.body = hi - p
	return err
}

// Finish seals the stream: the remaining body becomes the last shard,
// and the partial graphs merge in trace order into a graph from the
// arena — edge weights sum and node lists concatenate, reproducing the
// global first-occurrence node order exactly as BuildCtx's merge does.
// The caller owns the returned graph (recycle it via Arena.PutGraph).
func (f *Feeder) Finish(ctx context.Context) (*Graph, error) {
	if f.err == nil && f.body < len(f.slab) {
		lo, hi := f.body, len(f.slab)
		slab, maxSym, limit := f.slab, f.maxSym, f.limit
		st := f.arena.getShard()
		if st.g == nil {
			st.g = NewGraph()
		} else {
			st.g.Reset()
		}
		st.g.ensureSym(maxSym)
		f.states = append(f.states, st)
		if err := f.pool.Submit(func(ctx context.Context) error {
			err := buildShard(ctx, st, st.g, slab, maxSym, limit, lo, hi)
			f.putSlab(slab)
			return err
		}); err != nil && f.err == nil {
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
	g := f.arena.GetGraph()
	if f.n == 0 {
		f.release()
		return g, nil
	}
	g.ensureSym(f.maxSym)
	for _, st := range f.states {
		for _, s := range st.g.nodes {
			g.AddNode(s)
		}
		g.weights.MergeFrom(&st.g.weights)
	}
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
	for _, st := range f.states {
		f.arena.putShard(st)
	}
	f.states = nil
	f.slab = nil
}
