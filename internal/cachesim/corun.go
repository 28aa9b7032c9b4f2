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
func SimulateCorun(cfg Config, primary, peer *layout.Replayer) CorunResult {
	c := New(cfg)
	var res CorunResult
	// One block per thread per turn preserves the SMT interleaving
	// exactly; Replayer.Step hands each turn's lines over as two
	// pre-resolved ranges, with no per-turn buffer or closure.
	for {
		sf, sl, first, last, ok := primary.Step()
		if !ok {
			break
		}
		for ln := sf; ln <= sl; ln++ {
			c.Access(ln, &res.PerThread[0])
		}
		for ln := first; ln <= last; ln++ {
			c.Access(ln, &res.PerThread[0])
		}
		res.Blocks[0]++
		if sf, sl, first, last, ok = peer.Step(); ok {
			for ln := sf; ln <= sl; ln++ {
				c.Access(ln+PeerLineOffset, &res.PerThread[1])
			}
			for ln := first; ln <= last; ln++ {
				c.Access(ln+PeerLineOffset, &res.PerThread[1])
			}
			res.Blocks[1]++
		}
	}
	res.PeerLaps = peer.Laps()
	return res
}

// CorunJob is one independent co-run simulation: a primary replayer run
// to completion against a wrapping peer. Replayers are stateful, so each
// job must hold its own pair.
type CorunJob struct {
	Primary, Peer *layout.Replayer
}

// SimulateCorunBatch runs independent co-run simulations concurrently
// and returns their results in job order. Each simulation owns its cache
// and replayers, so results are identical to running the jobs one by one
// (workers = 1 pins that serial reference path; 0 means every available
// core).
func SimulateCorunBatch(cfg Config, jobs []CorunJob, workers int) []CorunResult {
	out, _ := parallel.Map(workers, len(jobs), func(i int) (CorunResult, error) {
		return SimulateCorun(cfg, jobs[i].Primary, jobs[i].Peer), nil
	})
	return out
}
