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

// drain walks a batch of ranges over the tag array with the co-run
// kernel's LRU step (see corun), counting in locals.
func (s *SoloStream) drain(rs []layout.LineRange) {
	c := s.c
	var acc, miss int64
	if c.fourWay() {
		acc, miss = walk4(c.tags, c.mask, rs)
	} else {
		acc, miss = c.walk(rs)
	}
	s.res.Stats.Accesses += acc
	s.res.Stats.Misses += miss
	s.buf = rs[:0]
}

// walk replays ranges through c with base and promote and returns the
// accesses and misses.
func (c *Cache) walk(rs []layout.LineRange) (acc, miss int64) {
	tags, assoc := c.tags, c.assoc
	for _, r := range rs {
		first, last := int64(r.First), int64(r.Last)
		if first < 0 {
			first = ^first
		}
		for ln := first; ln <= last; ln++ {
			if b := c.base(ln); tags[b] != ln && !promote(tags[b:b+assoc:b+assoc], ln) {
				miss++
			}
		}
		acc += last - first + 1
	}
	return acc, miss
}

// walk4 is walk on a 4-way tag array whose set count is a power of two,
// mask the set mask: each line's step is miss4 on its set.
func walk4(tags []int64, mask int64, rs []layout.LineRange) (acc, miss int64) {
	for _, r := range rs {
		first, last := int64(r.First), int64(r.Last)
		if first < 0 {
			first = ^first
		}
		for ln := first; ln <= last; ln++ {
			if miss4((*[4]int64)(tags[int(ln&mask)<<2:]), ln) {
				miss++
			}
		}
		acc += last - first + 1
	}
	return acc, miss
}
