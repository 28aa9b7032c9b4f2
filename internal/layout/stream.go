package layout

import "codelayout/internal/ir"

// StreamReplayer is the chunk-fed form of a non-wrapping Replayer: the
// caller pushes block occurrences as they arrive (layoutd decoding an
// upload that is still on the wire) and the fetch stream comes out
// identical to replaying the concatenated trace through AppendLines.
//
// Two per-occurrence rules look one step ahead, so the replayer holds
// back the most recent occurrence until its successor is known:
//
//   - a layout-appended jump patching a Branch only executes when the
//     trace actually goes to the displaced fall-through (the next
//     occurrence decides lastFull vs lastShort);
//   - the held occurrence itself is the "previous block" of the stub
//     rule for whatever follows it.
//
// Finish flushes the held occurrence with no successor — exactly the
// buffered path's non-wrapping trace end.
//
// A StreamReplayer is not safe for concurrent use.
type StreamReplayer struct {
	plan    *replayPlan
	prev    ir.BlockID // last emitted occurrence, for the stub rule
	held    ir.BlockID // most recent occurrence, awaiting its successor
	hasHeld bool
	blocks  int64
}

// NewStreamReplayer creates a chunk-fed replayer over the given layout.
// The layout is immutable for the replayer's lifetime by contract.
func NewStreamReplayer(l *Layout, lineBytes int) *StreamReplayer {
	return &StreamReplayer{
		plan: buildReplayPlan(l, int64(lineBytes)),
		prev: ir.NoBlock,
		held: ir.NoBlock,
	}
}

// emit appends the lines fetched by one occurrence of b whose successor
// in the trace is next (ir.NoBlock at the trace end) — the same rules,
// in the same order, as Replayer.AppendLines.
func (r *StreamReplayer) emit(dst []int64, b, next ir.BlockID) []int64 {
	p := r.plan
	if p.hasStubs && r.prev != ir.NoBlock {
		if fn := p.entryFn[b]; fn >= 0 && p.callCallee[r.prev] == fn {
			for ln := p.stubFirst[fn]; ln <= p.stubLast[fn]; ln++ {
				dst = append(dst, ln)
			}
		}
	}
	last := p.lastFull[b]
	if f := p.fall[b]; f != ir.NoBlock && next != f {
		last = p.lastShort[b]
	}
	for ln := p.lineFirst[b]; ln <= last; ln++ {
		dst = append(dst, ln)
	}
	r.prev = b
	r.blocks++
	return dst
}

// Feed appends the cache lines fetched by chunk's occurrences to dst
// and returns the extended slice. Chunk boundaries are irrelevant: any
// split of a trace yields the same line stream. The lines for the
// chunk's final occurrence appear only once its successor arrives (in
// the next chunk, or at Finish).
func (r *StreamReplayer) Feed(dst []int64, chunk []int32) []int64 {
	for _, s := range chunk {
		b := ir.BlockID(s)
		if r.hasHeld {
			dst = r.emit(dst, r.held, b)
		}
		r.held, r.hasHeld = b, true
	}
	return dst
}

// Finish flushes the held trailing occurrence — its successor is the
// trace end — and returns the extended slice. The replayer is exhausted
// afterwards; further Feed calls start emitting again as if the stream
// continued, so call Finish exactly once, last.
func (r *StreamReplayer) Finish(dst []int64) []int64 {
	if r.hasHeld {
		dst = r.emit(dst, r.held, ir.NoBlock)
		r.held, r.hasHeld = ir.NoBlock, false
	}
	return dst
}

// Blocks returns the number of occurrences emitted so far (the held
// occurrence counts only after Finish or its successor's arrival).
func (r *StreamReplayer) Blocks() int64 { return r.blocks }
