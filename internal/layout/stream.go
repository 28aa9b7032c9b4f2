package layout

import (
	"fmt"
	"math"

	"codelayout/internal/ir"
)

// StreamReplayer is the chunk-fed form of a non-wrapping Replayer: the
// caller pushes block occurrences as they arrive (layoutd decoding an
// upload that is still on the wire) and the fetch stream comes out as
// the line ranges Resolve gives the concatenated trace, in Lap form:
// each occurrence's block range, preceded by its stub range (First
// complemented) when it calls into a stub-carrying layout's function
// entry. Expanded into lines, they are the lines AppendLines fetches.
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
	lines   int64 // lines in the ranges emitted so far
}

// NewStreamReplayer creates a chunk-fed replayer over the given layout.
// The layout is immutable for the replayer's lifetime by contract.
// Ranges hold int32 lines, so it panics, as Resolve does, if the layout
// reaches past math.MaxInt32 lines.
func NewStreamReplayer(l *Layout, lineBytes int) *StreamReplayer {
	p := buildReplayPlan(l, int64(lineBytes))
	if top := p.maxLine(); top > math.MaxInt32 {
		panic(fmt.Sprintf("layout: line %d of a %d-byte-line stream overflows int32", top, lineBytes))
	}
	return &StreamReplayer{plan: p, prev: ir.NoBlock, held: ir.NoBlock}
}

// Feed appends the line ranges fetched by chunk's occurrences to dst
// and returns the extended slice. Chunk boundaries are irrelevant: any
// split of a trace yields the same ranges. The ranges of the chunk's
// final occurrence appear only once its successor arrives (in the next
// chunk, or at Finish).
func (r *StreamReplayer) Feed(dst []LineRange, chunk []int32) []LineRange {
	if len(chunk) > 0 && !r.hasHeld {
		r.held, r.hasHeld = ir.BlockID(chunk[0]), true
		chunk = chunk[1:]
	}
	return r.advance(dst, chunk)
}

// Finish flushes the held trailing occurrence — its successor is the
// trace end — and returns the extended slice. The replayer is exhausted
// afterwards; further Feed calls start emitting again as if the stream
// continued, so call Finish exactly once, last.
func (r *StreamReplayer) Finish(dst []LineRange) []LineRange {
	if !r.hasHeld {
		return dst
	}
	end := [1]int32{int32(ir.NoBlock)} // the held occurrence's successor
	dst = r.advance(dst, end[:])
	r.hasHeld = false
	return dst
}

// advance emits the held occurrence's ranges once its successor, the
// first of nexts, is known, then those of every occurrence in nexts but
// the last, which it holds. The rules are AppendLines', inline in one
// loop per batch: a helper called per occurrence measured slower.
func (r *StreamReplayer) advance(dst []LineRange, nexts []int32) []LineRange {
	p := r.plan
	prev, held, lines := r.prev, r.held, r.lines
	for _, s := range nexts {
		next := ir.BlockID(s)
		if p.hasStubs && prev != ir.NoBlock {
			if fn := p.entryFn[held]; fn >= 0 && p.callCallee[prev] == fn {
				dst = append(dst, LineRange{^int32(p.stubFirst[fn]), int32(p.stubLast[fn])})
				lines += p.stubLast[fn] - p.stubFirst[fn] + 1
			}
		}
		first, last := p.lineFirst[held], p.blockLast(held, next)
		dst = append(dst, LineRange{int32(first), int32(last)})
		lines += last - first + 1
		prev, held = held, next
	}
	r.prev, r.held, r.lines = prev, held, lines
	r.blocks += int64(len(nexts))
	return dst
}

// Blocks returns the number of occurrences emitted so far (the held
// occurrence counts only after Finish or its successor's arrival).
func (r *StreamReplayer) Blocks() int64 { return r.blocks }
