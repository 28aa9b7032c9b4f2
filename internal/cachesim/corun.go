package cachesim

import (
	"context"

	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
)

// This file implements the paper's Pin-style instruction cache
// simulation: address streams replayed through a plain LRU cache, with
// co-run modeled by interleaving the two hyper-threads' fetch streams.
// No timing, no prefetching — exactly the idealized "simulated" numbers
// of Table II.

// SoloResult summarizes one solo simulation.
type SoloResult struct {
	Stats Stats
	// Blocks is the number of block occurrences replayed.
	Blocks int64
}

// soloBatchBlocks is the number of block occurrences SimulateSolo
// resolves per AppendLines batch: large enough to amortize the batching
// away, small enough that the line buffer stays cache-resident.
const soloBatchBlocks = 1024

// SimulateSolo replays one program's fetch stream through a private
// instruction cache. The stream is resolved in batches of pre-computed
// line sequences (Replayer.AppendLines), so the simulation loop is a
// plain slice walk — no per-access closure dispatch.
func SimulateSolo(cfg Config, r *layout.Replayer) SoloResult {
	c := New(cfg)
	var res SoloResult
	buf := make([]int64, 0, 4*soloBatchBlocks)
	for {
		lines, blocks := r.AppendLines(buf[:0], soloBatchBlocks)
		if blocks == 0 {
			return res
		}
		buf = lines[:0]
		for _, ln := range lines {
			c.Access(ln, &res.Stats)
		}
		res.Blocks += int64(blocks)
	}
}

// SimulateSoloCtx is SimulateSolo recorded as a cachesim.replay span on
// ctx's obs recorder, for callers inside an instrumented pipeline.
func SimulateSoloCtx(ctx context.Context, cfg Config, r *layout.Replayer) SoloResult {
	sp := obs.StartSpan(ctx, "cachesim.replay")
	defer sp.End()
	res := SimulateSolo(cfg, r)
	sp.SetAttr("blocks", res.Blocks)
	return res
}

// PeerLineOffset separates the two co-run processes' address spaces: the
// peer's lines are shifted by the equivalent of 4 GB so that identical
// binaries do not share cache lines (two processes never share code
// pages in the physically indexed cache). The offset is a multiple of
// every power-of-two set count, so set mapping within each program is
// unchanged.
const PeerLineOffset int64 = 1 << 26

// CorunResult summarizes a shared-cache co-run simulation of two
// threads.
type CorunResult struct {
	// PerThread holds each thread's demand statistics against the
	// shared cache.
	PerThread [2]Stats
	// Blocks counts block occurrences replayed per thread.
	Blocks [2]int64
	// PeerLaps is how many times the wrapping peer (thread 1) restarted
	// its trace before the primary (thread 0) finished.
	PeerLaps int
}

// SimulateCorun interleaves the two replayers' fetch streams through one
// shared instruction cache, one block occurrence per thread per turn
// (SMT round-robin fetch at block granularity). The simulation ends when
// the primary replayer (index 0) exhausts its trace; the peer is
// expected to be wrapping so it keeps producing interference throughout.
// Each stream is resolved to a layout.Lap and replayed from the
// replayer's cursor, which is then moved past the occurrences replayed.
func SimulateCorun(cfg Config, primary, peer *layout.Replayer) CorunResult {
	return corunReplayers(cfg, primary, peer, primary.Stream().Resolve(), peer.Stream().Resolve())
}

// SimulateCorunLaps is SimulateCorun over resolved laps, for a caller
// that replays each stream in several simulations: the primary replays
// its lap once from the start, against a peer that wraps from its start.
func SimulateCorunLaps(cfg Config, primary, peer *layout.Lap) CorunResult {
	return corun(New(cfg), lane{lap: primary}, lane{lap: peer, wrap: true})
}

// corunReplayers runs the kernel from the replayers' cursors over their
// resolved laps and leaves the cursors where a stepwise replay would.
func corunReplayers(cfg Config, primary, peer *layout.Replayer, pl, ql *layout.Lap) CorunResult {
	res := corun(New(cfg),
		lane{lap: pl, wrap: primary.Wraps(), next: pl.RangeIndex(primary.Pos())},
		lane{lap: ql, wrap: peer.Wraps(), next: ql.RangeIndex(peer.Pos())})
	primary.Skip(int(res.Blocks[0]))
	peer.Skip(int(res.Blocks[1]))
	res.PeerLaps = peer.Laps()
	return res
}

// lane is one thread of the co-run kernel: a resolved lap, the index
// of the next occurrence's first range in it, and the thread's line
// offset in the shared cache.
type lane struct {
	lap  *layout.Lap
	wrap bool
	next int
	laps int
	off  int64
}

// turn replays the lane's next occurrence through c and returns its
// accesses and misses; ok is false when a non-wrapping lane is
// exhausted. Most accesses hit their set's MRU way and go no further.
func (l *lane) turn(c *Cache) (acc, miss int64, ok bool) {
	rs := l.lap.Ranges
	i := l.next
	if i == len(rs) {
		if !l.wrap || i == 0 {
			return 0, 0, false
		}
		i = 0
		l.laps++
	}
	tags, assoc := c.tags, c.assoc
	for {
		r := rs[i]
		i++
		first, last := int64(r.First), int64(r.Last)
		stub := first < 0
		if stub {
			first = ^first
		} else if i == len(rs) && l.wrap {
			last = int64(l.lap.WrapLast)
		}
		for ln := first + l.off; ln <= last+l.off; ln++ {
			b := c.base(ln)
			if tags[b] != ln && !promote(tags[b:b+assoc:b+assoc], ln) {
				miss++
			}
		}
		acc += last - first + 1
		if !stub {
			l.next = i
			return acc, miss, true
		}
	}
}

// corun is the co-run kernel: one occurrence of the primary lane, then
// one of the peer's, until the primary is exhausted. Accesses and
// misses are counted in locals.
func corun(c *Cache, p, q lane) CorunResult {
	var res CorunResult
	var acc, miss [2]int64
	q.off = PeerLineOffset
	for {
		a, m, ok := p.turn(c)
		if !ok {
			break
		}
		acc[0] += a
		miss[0] += m
		res.Blocks[0]++
		if a, m, ok = q.turn(c); ok {
			acc[1] += a
			miss[1] += m
			res.Blocks[1]++
		}
	}
	for t := range res.PerThread {
		res.PerThread[t] = Stats{Accesses: acc[t], Misses: miss[t]}
	}
	res.PeerLaps = q.laps
	return res
}

// CorunJob is one independent co-run simulation: a primary replayer run
// to completion against a wrapping peer. Replayers are stateful, so each
// job must hold its own pair.
type CorunJob struct {
	Primary, Peer *layout.Replayer
}

// SimulateCorunBatch runs independent co-run simulations concurrently
// and returns their results in job order. Each distinct stream among the
// jobs' replayers is resolved once and shared read-only; each simulation
// owns its cache and cursors, so results are identical to running the
// jobs one by one (workers = 1 pins that serial reference path; 0 means
// every available core).
func SimulateCorunBatch(cfg Config, jobs []CorunJob, workers int) []CorunResult {
	laps := make(map[layout.Stream]*layout.Lap)
	for _, j := range jobs {
		for _, r := range [2]*layout.Replayer{j.Primary, j.Peer} {
			if s := r.Stream(); laps[s] == nil {
				laps[s] = s.Resolve()
			}
		}
	}
	out, _ := parallel.Map(workers, len(jobs), func(i int) (CorunResult, error) {
		j := jobs[i]
		return corunReplayers(cfg, j.Primary, j.Peer, laps[j.Primary.Stream()], laps[j.Peer.Stream()]), nil
	})
	return out
}
