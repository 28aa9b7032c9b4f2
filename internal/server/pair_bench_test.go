package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/layout"
)

// benchPairEntries materializes suite results the way resolveEntry
// does — baseline layout, optimized layout, trimmed training trace —
// with MissAfter set to the optimized layout's default-geometry solo
// miss ratio, as an optimization job stores it.
func benchPairEntries(b *testing.B) []*corunEntry {
	b.Helper()
	var out []*corunEntry
	for _, prog := range []string{"429.mcf", "458.sjeng", "445.gobmk"} {
		p, err := core.LoadProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := core.ProfileProgram(p, core.TrainSeed)
		if err != nil {
			b.Fatal(err)
		}
		tr := prof.Blocks.Trimmed()
		for _, o := range []core.Optimizer{core.FuncAffinity(), core.BBAffinity()} {
			l, _, err := o.Optimize(prof)
			if err != nil {
				b.Fatal(err)
			}
			miss := cachesim.SimulateSolo(cachesim.L1IDefault,
				layout.NewReplayer(l, tr, cachesim.L1IDefault.LineBytes, false)).Stats.MissRatio()
			out = append(out, &corunEntry{
				res: &Result{Digest: fmt.Sprintf("%064d", len(out)), Prog: prog,
					Optimizer: o.Name(), MissAfter: miss},
				base: layout.Original(p),
				opt:  l,
				tr:   tr,
			})
		}
	}
	return out
}

// BenchmarkComputePair measures one /v1/corun pair analysis at the
// default geometry over suite pairs, with fresh entries (nothing
// memoized) and Workers 1. "pair" is the whole analysis; "sims",
// "curves" and "solo" are its parts: the six co-run simulations as
// computePair runs them (the four streams' resolution included), both
// sides' footprint curves (each resolving its own stream to a line
// trace, as a schedule does) and both sides' solo miss ratios. "cost" is one schedule matrix cell composed over fresh
// entries: both curves and the Eq-1 prediction, no simulation. Each
// reports ms/pair.
func BenchmarkComputePair(b *testing.B) {
	entries := benchPairEntries(b)
	type pair struct{ a, b int }
	var pairs []pair
	for i := range entries {
		pairs = append(pairs, pair{i, (i + 3) % len(entries)})
	}
	fresh := func(e *corunEntry) *corunEntry {
		return &corunEntry{res: e.res, base: e.base, opt: e.opt, tr: e.tr}
	}
	s := &Server{}
	ctx := context.Background()
	cfg := cachesim.L1IDefault
	perPair := func(b *testing.B, elapsed time.Duration) {
		b.ReportMetric(float64(elapsed)/float64(time.Millisecond)/float64(b.N*len(pairs)), "ms/pair")
	}
	b.Run("pair", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, err := s.computePair(ctx, cfg, fresh(entries[p.a]), fresh(entries[p.b]), 1); err != nil {
					b.Fatal(err)
				}
			}
		}
		perPair(b, time.Since(start))
	})
	b.Run("sims", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				simulatePair(cfg, entries[p.a], entries[p.b], 1)
			}
		}
		perPair(b, time.Since(start))
	})
	b.Run("curves", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				fresh(entries[p.a]).curve(ctx, cfg.LineBytes, 1, nil)
				fresh(entries[p.b]).curve(ctx, cfg.LineBytes, 1, nil)
			}
		}
		perPair(b, time.Since(start))
	})
	b.Run("cost", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				x, y := fresh(entries[p.a]), fresh(entries[p.b])
				if y.res.Digest < x.res.Digest {
					x, y = y, x
				}
				predictPair(cfg, x.curve(ctx, cfg.LineBytes, 1, nil), y.curve(ctx, cfg.LineBytes, 1, nil))
			}
		}
		perPair(b, time.Since(start))
	})
	b.Run("solo", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				fresh(entries[p.a]).soloMiss(ctx, cfg)
				fresh(entries[p.b]).soloMiss(ctx, cfg)
			}
		}
		perPair(b, time.Since(start))
	})
}
