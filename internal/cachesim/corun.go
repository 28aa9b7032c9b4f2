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
// A wrapping primary would never end, so it panics on one. Each stream
// is resolved to a layout.Lap and replayed from the replayer's cursor,
// which is then moved past the occurrences replayed.
func SimulateCorun(cfg Config, primary, peer *layout.Replayer) CorunResult {
	mustEnd(primary)
	return corunReplayers(cfg, primary, peer, primary.Stream().Resolve(), peer.Stream().Resolve())
}

// mustEnd panics on a wrapping primary replayer: the co-run kernel
// stops only when its primary runs out.
func mustEnd(primary *layout.Replayer) {
	if primary.Wraps() {
		panic("cachesim: co-run primary replayer wraps, so the simulation would never end")
	}
}

// SimulateCorunLaps is SimulateCorun over resolved laps, for a caller
// that replays each stream in several simulations: the primary replays
// its lap once from the start, against a peer that wraps from its start.
func SimulateCorunLaps(cfg Config, primary, peer *layout.Lap) CorunResult {
	return corun(New(cfg), primary.Ranges, peer, 0, true)
}

// corunReplayers runs the kernel from the replayers' cursors over their
// resolved laps and leaves the cursors where a stepwise replay would.
func corunReplayers(cfg Config, primary, peer *layout.Replayer, pl, ql *layout.Lap) CorunResult {
	res := corun(New(cfg), pl.Ranges[pl.RangeIndex(primary.Pos()):], ql, ql.RangeIndex(peer.Pos()), peer.Wraps())
	primary.Skip(int(res.Blocks[0]))
	peer.Skip(int(res.Blocks[1]))
	res.PeerLaps = peer.Laps()
	return res
}

// corun is the range kernel: one occurrence of the primary's ranges p
// (a stub range, if any, then the block range that ends every
// occurrence), then one of the peer lap q's from range index j, until
// p is exhausted. A wrapping peer restarts its lap, and its final
// occurrence then ends at the lap's WrapLast; a peer that does not wrap
// drops out when it runs out. The peer's lines sit PeerLineOffset
// above the primary's. Cursors, the peer's laps and the counters are
// locals.
//
// Every line takes one inlined LRU step: under 4 ways and a
// power-of-two set count (L1IDefault) the loop is corun4's, whose step
// is miss4; any other geometry takes base and promote, as Access does.
// The two loops differ only in that step: one loop that tested the
// geometry per line or per range measured slower (DESIGN.md §12).
func corun(c *Cache, p []layout.LineRange, q *layout.Lap, j int, wrap bool) CorunResult {
	if c.fourWay() {
		return corun4(c.tags, c.mask, p, q, j, wrap)
	}
	var res CorunResult
	var acc0, miss0, acc1, miss1 int64
	qr := q.Ranges
	wrap = wrap && len(qr) > 0
	tags, assoc := c.tags, c.assoc
	for i := 0; i < len(p); {
		for {
			r := p[i]
			i++
			first, last := int64(r.First), int64(r.Last)
			stub := first < 0
			if stub {
				first = ^first
			}
			for ln := first; ln <= last; ln++ {
				if b := c.base(ln); tags[b] != ln && !promote(tags[b:b+assoc:b+assoc], ln) {
					miss0++
				}
			}
			acc0 += last - first + 1
			if !stub {
				break
			}
		}
		res.Blocks[0]++
		if j == len(qr) {
			if !wrap {
				continue
			}
			j = 0
			res.PeerLaps++
		}
		for {
			r := qr[j]
			j++
			first, last := int64(r.First), int64(r.Last)
			stub := first < 0
			if stub {
				first = ^first
			} else if j == len(qr) && wrap {
				last = int64(q.WrapLast)
			}
			for ln := first + PeerLineOffset; ln <= last+PeerLineOffset; ln++ {
				if b := c.base(ln); tags[b] != ln && !promote(tags[b:b+assoc:b+assoc], ln) {
					miss1++
				}
			}
			acc1 += last - first + 1
			if !stub {
				break
			}
		}
		res.Blocks[1]++
	}
	res.PerThread[0] = Stats{Accesses: acc0, Misses: miss0}
	res.PerThread[1] = Stats{Accesses: acc1, Misses: miss1}
	return res
}

// corun4 is corun on a 4-way tag array whose set count is a power of
// two, mask the set mask: each line's step is miss4 on its set.
func corun4(tags []int64, mask int64, p []layout.LineRange, q *layout.Lap, j int, wrap bool) CorunResult {
	var res CorunResult
	var acc0, miss0, acc1, miss1 int64
	qr := q.Ranges
	wrap = wrap && len(qr) > 0
	for i := 0; i < len(p); {
		for {
			r := p[i]
			i++
			first, last := int64(r.First), int64(r.Last)
			stub := first < 0
			if stub {
				first = ^first
			}
			for ln := first; ln <= last; ln++ {
				if miss4((*[4]int64)(tags[int(ln&mask)<<2:]), ln) {
					miss0++
				}
			}
			acc0 += last - first + 1
			if !stub {
				break
			}
		}
		res.Blocks[0]++
		if j == len(qr) {
			if !wrap {
				continue
			}
			j = 0
			res.PeerLaps++
		}
		for {
			r := qr[j]
			j++
			first, last := int64(r.First), int64(r.Last)
			stub := first < 0
			if stub {
				first = ^first
			} else if j == len(qr) && wrap {
				last = int64(q.WrapLast)
			}
			for ln := first + PeerLineOffset; ln <= last+PeerLineOffset; ln++ {
				if miss4((*[4]int64)(tags[int(ln&mask)<<2:]), ln) {
					miss1++
				}
			}
			acc1 += last - first + 1
			if !stub {
				break
			}
		}
		res.Blocks[1]++
	}
	res.PerThread[0] = Stats{Accesses: acc0, Misses: miss0}
	res.PerThread[1] = Stats{Accesses: acc1, Misses: miss1}
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
// every available core). Like SimulateCorun, it panics on a job whose
// primary wraps.
func SimulateCorunBatch(cfg Config, jobs []CorunJob, workers int) []CorunResult {
	laps := make(map[layout.Stream]*layout.Lap)
	for _, j := range jobs {
		mustEnd(j.Primary)
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
