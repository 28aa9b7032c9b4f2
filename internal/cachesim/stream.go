package cachesim

import "codelayout/internal/layout"

// SoloStream is the chunk-fed form of SimulateSolo: layoutd feeds
// decoded upload chunks as they arrive, and Finish returns the same
// SoloResult the buffered simulation computes over the concatenated
// trace. Memory is bounded by one batch of resolved line ranges
// regardless of trace length.
//
// A SoloStream is not safe for concurrent use.
type SoloStream struct {
	c   *Cache
	r   *layout.StreamReplayer
	res SoloResult
	buf []layout.LineRange
}

// NewSoloStream prepares a streaming solo simulation of the given
// layout's fetch stream through a private cache (cfg.LineBytes sizes
// the replayed lines, as in the buffered path).
func NewSoloStream(cfg Config, l *layout.Layout) *SoloStream {
	return &SoloStream{
		c:   New(cfg),
		r:   layout.NewStreamReplayer(l, cfg.LineBytes),
		buf: make([]layout.LineRange, 0, 2*soloBatchBlocks),
	}
}

// Feed replays one chunk of the block trace through the cache. Chunk
// boundaries are irrelevant to the result. Large chunks are resolved in
// soloBatchBlocks batches so the range buffer stays cache-resident, as
// in SimulateSolo.
func (s *SoloStream) Feed(chunk []int32) {
	for len(chunk) > 0 {
		n := min(soloBatchBlocks, len(chunk))
		s.drain(s.r.Feed(s.buf[:0], chunk[:n]))
		chunk = chunk[n:]
	}
}

// Finish flushes the held trailing occurrence and returns the result.
// Call it exactly once, after the last Feed.
func (s *SoloStream) Finish() SoloResult {
	s.drain(s.r.Finish(s.buf[:0]))
	s.res.Blocks = s.r.Blocks()
	return s.res
}

// drain walks a batch of ranges over the tag array as the co-run lane
// does, counting accesses and misses in locals.
func (s *SoloStream) drain(rs []layout.LineRange) {
	c := s.c
	tags, assoc := c.tags, c.assoc
	var acc, miss int64
	for _, r := range rs {
		first, last := int64(r.First), int64(r.Last)
		if first < 0 {
			first = ^first
		}
		for ln := first; ln <= last; ln++ {
			b := c.base(ln)
			if tags[b] != ln && !promote(tags[b:b+assoc:b+assoc], ln) {
				miss++
			}
		}
		acc += last - first + 1
	}
	s.res.Stats.Accesses += acc
	s.res.Stats.Misses += miss
	s.buf = rs[:0]
}
