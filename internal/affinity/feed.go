package affinity

import (
	"context"
	"sync"

	"codelayout/internal/flathash"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
	"codelayout/internal/stackdist"
)

// Feeder runs the stack-simulation analysis incrementally, over a trace
// that arrives in chunks — layoutd feeding decoded upload chunks into
// the kernel while the rest of the trace is still on the network. It is
// the package's one shard/fold orchestration: BuildHierarchyCtx runs it
// over a trace already in memory, cutting the shards in place. The
// per-shard candidate lists fold exactly for ANY contiguous sharding —
// lists intersect, depths take the max (the sharded-merge determinism
// invariant, DESIGN.md §7) — so shards cut at arrival-dictated
// boundaries fold to the same minimal-window table as one serial pass
// over the concatenated input, and the Hierarchy is byte-identical.
//
// The feeder keeps a single slab: the undispatched body plus just
// enough preceding context for the next shard's warm-up replay. When
// the body reaches the shard span, the cut position is remembered and
// the shard is dispatched as soon as wmax distinct symbols have arrived
// past it (the forward warm-up the backward pass needs); the slab then
// shrinks to the warm-up span before the cut onward. A shard takes its
// working state from the arena when it starts, folds its lists into the
// feeder's one accumulator the moment it finishes, and hands the state
// straight back. In-flight memory is therefore bounded by the shard
// span, the warm spans, the FeedPool's 2×workers in-flight cap and the
// accumulator (at most 2·(wmax−1) candidates per symbol) — not by the
// trace length. On low-diversity tails (fewer than wmax distinct symbols
// ever arriving after a cut) the pending shard is held until Finish,
// degrading memory to the tail length but never correctness.
//
// A Feeder is not safe for concurrent use; call Feed from one
// goroutine, then exactly one of Finish or Abort.
type Feeder struct {
	wmax        int
	shardTarget int
	arena       *Arena
	pool        *parallel.FeedPool

	slab []int32 // warm context [0,body) + undispatched body [body,len)
	body int

	prev     int32 // last accepted symbol, for cross-chunk trimming
	n        int   // trimmed occurrences accepted so far
	maxSym   int32
	firstOcc []int32
	occCount []int64
	order    []int32 // symbols in first-occurrence order

	// seen is the distinct-symbol set shared by the pending-cut wait
	// counter and the warm-up scan at a cut (never both live).
	seen      stackdist.Distinct
	pendingHi int // local cut index awaiting wmax distinct arrivals; -1 none
	distinct  int

	mu  sync.Mutex // guards acc, which the pool's workers fold into
	acc *candLists // the lists of every shard finished so far

	slabPool sync.Pool // *[]int32
	err      error
}

// NewFeeder prepares a streaming build bound to ctx. opt is interpreted
// exactly as by BuildHierarchyCtx; Workers additionally sizes the
// analysis pool the shards are dispatched to (1 analyzes inline on the
// feeding goroutine — the serial reference path).
func NewFeeder(ctx context.Context, opt Options) *Feeder {
	wmax := opt.WMax
	if wmax <= 0 {
		wmax = DefaultWMax
	}
	target := opt.FeedShardSpan
	if target <= 0 {
		target = defaultShardSpan
	}
	if target < minShardSpan*wmax {
		target = minShardSpan * wmax
	}
	return &Feeder{
		wmax:        wmax,
		shardTarget: target,
		arena:       opt.Arena,
		pool:        parallel.NewFeedPool(ctx, opt.Workers),
		prev:        -1,
		pendingHi:   -1,
		acc:         opt.Arena.getLists(),
	}
}

// grow sizes the dense per-symbol tables for symbol s.
func (f *Feeder) grow(s int32) {
	if int(s) < len(f.firstOcc) {
		return
	}
	n := int(s) + 1
	if c := 2 * len(f.firstOcc); n < c {
		n = c
	}
	firstOcc := make([]int32, n)
	copy(firstOcc, f.firstOcc)
	for i := len(f.firstOcc); i < n; i++ {
		firstOcc[i] = -1
	}
	f.firstOcc = firstOcc
	occCount := make([]int64, n)
	copy(occCount, f.occCount)
	f.occCount = occCount
	f.seen.Grow(int32(n - 1))
}

// Feed appends one chunk of the trace. Chunk boundaries are irrelevant:
// feeding any split of a trace yields the same hierarchy. A non-nil
// error means a dispatched shard failed (ctx canceled); the caller
// should stop feeding and call Abort.
func (f *Feeder) Feed(chunk []int32) error {
	if f.err != nil {
		return f.err
	}
	for _, s := range chunk {
		if s == f.prev {
			continue // trimming, as BuildHierarchyCtx does up front
		}
		f.prev = s
		f.grow(s)
		if s > f.maxSym {
			f.maxSym = s
		}
		if f.firstOcc[s] < 0 {
			f.firstOcc[s] = int32(f.n)
			f.order = append(f.order, s)
		}
		f.occCount[s]++
		f.n++
		f.slab = append(f.slab, s)
		if f.pendingHi >= 0 {
			// A cut is waiting for its forward warm span: wmax distinct
			// symbols past the cut pin down the backward pass's stack.
			if f.seen.Add(s) {
				f.distinct++
				if f.distinct >= f.wmax {
					if err := f.dispatch(f.pendingHi); err != nil {
						f.err = err
						return err
					}
				}
			}
		} else if len(f.slab)-f.body >= f.shardTarget {
			f.seen.Clear()
			f.distinct = 0
			f.pendingHi = len(f.slab)
		}
	}
	return nil
}

// feedResident feeds a whole trimmed trace held in memory, in place of
// Feed. One batch pass fills the symbol tables, and the trace is cut
// into max(workers, ⌈n/span⌉) shards, each submitted against syms
// itself, so its warm-ups read the real neighbouring trace. syms stays
// the caller's: no shard writes it and the slab pool never takes it. A
// failed submission is kept for Finish.
func (f *Feeder) feedResident(syms []int32, workers int) {
	f.firstOcc, f.occCount, f.order = symbolTables(syms)
	f.maxSym, f.n = int32(len(f.firstOcc)-1), len(syms)
	parts := max(parallel.Workers(workers), (f.n+f.shardTarget-1)/f.shardTarget)
	for _, c := range parallel.Chunks(f.n, parts, minShardSpan*f.wmax) {
		if err := f.submit(syms, c[0], c[1], false); err != nil {
			f.err = err
			return
		}
	}
}

// N returns the number of trimmed occurrences accepted so far — the
// trace length the analysis sees, matching the input's Trimmed().Len().
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
// pool, and starts a fresh slab at the shard's own warm-up boundary so
// the next shard warms up exactly as the full-trace simulation would.
// The slab-start invariant (each slab begins at such a boundary or at
// the trace start) makes the slab-local scan agree with the full-trace
// one.
func (f *Feeder) dispatch(hi int) error {
	lo, p := f.body, f.seen.Before(f.slab, hi, f.wmax)
	slab := f.slab
	next := append(f.getSlab(f.shardTarget+2*f.wmax), slab[p:]...)
	err := f.submit(slab, lo, hi, true)
	f.slab = next
	f.body = hi - p
	f.pendingHi = -1
	return err
}

// submit hands shard [lo, hi) of slab to the pool. The task borrows a
// state only while it runs: it folds the shard's lists into the
// accumulator as soon as its passes finish and returns the state to the
// arena, so a finished shard holds nothing. A slab the feeder owns goes
// back to the slab pool once its shard is done; a resident trace is not
// the feeder's to recycle.
func (f *Feeder) submit(slab []int32, lo, hi int, owned bool) error {
	maxSym, wmax := f.maxSym, f.wmax
	return f.pool.Submit(func(ctx context.Context) error {
		st := f.arena.getShard()
		defer f.arena.putShard(st)
		err := shardPairHists(ctx, st, slab, maxSym, wmax, lo, hi)
		if owned {
			f.putSlab(slab)
		}
		if err != nil {
			return err
		}
		f.mu.Lock()
		f.acc.fold(st)
		f.mu.Unlock()
		return nil
	})
}

// Finish seals the stream: the remaining body becomes the last shard
// (its backward warm-up span ends at the true trace end), and once every
// shard has folded, the level merge builds the hierarchy from the
// minimal-window table.
func (f *Feeder) Finish(ctx context.Context) (*Hierarchy, error) {
	sp := obs.StartSpan(ctx, "affinity.hierarchy")
	defer sp.End()
	return f.finish(sp)
}

// finish is Finish inside a span the caller opened and ends.
func (f *Feeder) finish(sp obs.Span) (*Hierarchy, error) {
	sp.SetAttr("trace_len", int64(f.n))
	sp.SetAttr("wmax", int64(f.wmax))
	minW, err := f.minWindows()
	if err != nil {
		return nil, err
	}
	h := newHierarchyShellFrom(f.firstOcc, f.occCount, f.order, f.wmax)
	if minW == nil {
		return h, nil // empty trace: the shell is the whole answer
	}
	buildLevels(h, f.wmax, minW)
	f.arena.putMinW(minW)
	return h, nil
}

// minWindows seals the stream and returns the minimal-window table of
// the concatenated input, or nil for an empty trace. The accumulator
// goes back to the arena either way.
func (f *Feeder) minWindows() (*flathash.Sum64, error) {
	if f.err == nil && f.body < len(f.slab) {
		if err := f.submit(f.slab, f.body, len(f.slab), true); err != nil {
			f.err = err
		}
		f.slab = nil
	}
	defer f.release()
	if err := f.pool.Wait(); err != nil {
		return nil, err
	}
	if f.err != nil || f.n == 0 {
		return nil, f.err
	}
	return reduceMinW(f.acc, f.arena), nil
}

// Abort discards the stream: it drains in-flight shards and recycles
// their buffers. Call it instead of Finish when the job is canceled.
func (f *Feeder) Abort() {
	_ = f.pool.Wait()
	f.release()
}

func (f *Feeder) release() {
	f.arena.putLists(f.acc)
	f.acc = nil
	f.slab = nil
}
