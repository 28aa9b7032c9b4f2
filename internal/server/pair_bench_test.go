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
// memoized) and Workers 1, as a schedule job runs each pair. "pair" is
// the whole analysis; "sims", "curves" and "solo" are its parts: the six
// co-run simulations, both sides' footprint curves (line trace
// included) and both sides' solo miss ratios. Each reports ms/pair.
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
				x, y := entries[p.a], entries[p.b]
				rep := func(l *layout.Layout, e *corunEntry, wrap bool) *layout.Replayer {
					return layout.NewReplayer(l, e.tr, cfg.LineBytes, wrap)
				}
				cachesim.SimulateCorunBatch(cfg, []cachesim.CorunJob{
					{Primary: rep(x.base, x, false), Peer: rep(y.base, y, true)},
					{Primary: rep(x.opt, x, false), Peer: rep(y.base, y, true)},
					{Primary: rep(y.base, y, false), Peer: rep(x.base, x, true)},
					{Primary: rep(y.opt, y, false), Peer: rep(x.base, x, true)},
					{Primary: rep(x.opt, x, false), Peer: rep(y.opt, y, true)},
					{Primary: rep(y.opt, y, false), Peer: rep(x.opt, x, true)},
				}, 1)
			}
		}
		perPair(b, time.Since(start))
	})
	b.Run("curves", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				fresh(entries[p.a]).curve(ctx, cfg.LineBytes, 1)
				fresh(entries[p.b]).curve(ctx, cfg.LineBytes, 1)
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
