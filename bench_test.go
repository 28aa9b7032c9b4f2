package codelayout

// bench_test.go regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks (DESIGN.md §4), plus the ablation
// benches for the design choices DESIGN.md §6 calls out. The headline
// number of each experiment is attached to the benchmark via
// b.ReportMetric so that `go test -bench=.` both regenerates and
// summarizes the results; the full rendered tables come from
// cmd/benchtables.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"codelayout/internal/affinity"
	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/experiments"
	"codelayout/internal/footprint"
	"codelayout/internal/layout"
	"codelayout/internal/trace"
	"codelayout/internal/trg"
)

// benchWS is shared across benchmarks so program generation, profiling
// and optimization are paid once per `go test -bench` process.
var (
	benchWS     *Workspace
	benchWSOnce sync.Once
)

func ws() *Workspace {
	benchWSOnce.Do(func() { benchWS = NewWorkspace() })
	return benchWS
}

// --- One benchmark per table/figure -------------------------------------

func BenchmarkIntroTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := IntroTable(ws())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.AvgSolo, "solo-miss-%")
		b.ReportMetric(100*res.Increase1(), "gcc-increase-%")
		b.ReportMetric(100*res.Increase2(), "gamess-increase-%")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table1(ws())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range res.Rows {
			if row.MissGamess > worst {
				worst = row.MissGamess
			}
		}
		b.ReportMetric(100*worst, "max-corun-miss-%")
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Figure1()
		if len(res.Sequence) != 5 {
			b.Fatal("figure 1 sequence wrong")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := Figure2()
		if len(res.Sequence) != 5 {
			b.Fatal("figure 2 sequence wrong")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SpanOriginal), "pair-span-base-B")
		b.ReportMetric(float64(res.SpanOptimized), "pair-span-opt-B")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure4(ws())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NonTrivialCount()), "non-trivial-programs")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure5(ws())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MaxMissReduction(), "max-solo-miss-red-%")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table2(ws())
		if err != nil {
			b.Fatal(err)
		}
		var bestBB float64
		for _, row := range res.Rows {
			if row.Optimizer == "bb-affinity" && !row.NA && row.AvgSpeedup > bestBB {
				bestBB = row.AvgSpeedup
			}
		}
		b.ReportMetric(100*(bestBB-1), "best-bb-corun-speedup-%")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure6(ws())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Table.Rows) == 0 {
			b.Fatal("empty figure 6")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure7(ws())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.GainBounds()
		b.ReportMetric(100*lo, "min-ht-gain-%")
		b.ReportMetric(100*hi, "max-ht-gain-%")
		b.ReportMetric(100*res.AvgMagnification(), "avg-magnification-%")
	}
}

func BenchmarkOptOpt(b *testing.B) {
	t2, err := Table2(ws())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := OptOpt(ws(), t2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.AvgExtraGain(), "avg-extra-gain-%")
	}
}

// BenchmarkComparison runs the extension experiment: the paper's four
// optimizers against the related-work baselines (Pettis-Hansen call
// graph, Conflict Miss Graph, intra-procedural BB reordering).
func BenchmarkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Comparison(ws(), nil)
		if err != nil {
			b.Fatal(err)
		}
		avg := res.AverageByOptimizer()
		b.ReportMetric(100*(avg["bb-affinity"]-1), "bb-aff-corun-speedup-%")
		b.ReportMetric(100*(avg["bb-affinity-intra"]-1), "bb-intra-corun-speedup-%")
		b.ReportMetric(100*(avg["func-callgraph"]-1), "callgraph-corun-speedup-%")
	}
}

// --- Ablation benches (DESIGN.md §6) -------------------------------------

// benchProfile returns the shared profile of one mid-sized program.
func benchProfile(b *testing.B) *core.Profile {
	b.Helper()
	bench, err := ws().Bench("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	return bench.Train
}

// ablationMiss measures the simulated solo miss ratio of an optimizer
// variant.
func ablationMiss(b *testing.B, opt core.Optimizer) float64 {
	b.Helper()
	bench, err := ws().Bench("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := opt.Optimize(bench.Train)
	if err != nil {
		b.Fatal(err)
	}
	sim := simSoloMiss(b, bench, l)
	return sim
}

func simSoloMiss(b *testing.B, bench *Bench, l *layout.Layout) float64 {
	b.Helper()
	r := layout.NewReplayer(l, bench.Eval.Blocks, cachesim.L1IDefault.LineBytes, false)
	return cachesim.SimulateSolo(cachesim.L1IDefault, r).Stats.MissRatio()
}

// BenchmarkAblationWmax sweeps the affinity window bound (paper: 2..20).
func BenchmarkAblationWmax(b *testing.B) {
	for _, wmax := range []int{5, 10, 20, 40} {
		b.Run(sprint("wmax=", wmax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.BBAffinity()
				opt.WMax = wmax
				b.ReportMetric(100*ablationMiss(b, opt), "solo-miss-%")
			}
		})
	}
}

// BenchmarkAblationTRGWindow sweeps the TRG examination window (paper
// recommends twice the cache size).
func BenchmarkAblationTRGWindow(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		b.Run(sprint("scale=", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.FuncTRG()
				opt.TRGWindowScale = scale
				b.ReportMetric(100*ablationMiss(b, opt), "solo-miss-%")
			}
		})
	}
}

// BenchmarkAblationPruning sweeps the popularity pruning bound (paper:
// top 10,000 blocks).
func BenchmarkAblationPruning(b *testing.B) {
	for _, topN := range []int{100, 1000, 10000} {
		b.Run(sprint("topN=", topN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.BBAffinity()
				opt.PruneTopN = topN
				b.ReportMetric(100*ablationMiss(b, opt), "solo-miss-%")
			}
		})
	}
}

// BenchmarkAblationTRGSize sweeps the uniform block-size assumption of
// the TRG model.
func BenchmarkAblationTRGSize(b *testing.B) {
	for _, size := range []int{128, 512, 2048} {
		b.Run(sprint("blockBytes=", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.FuncTRG()
				opt.TRGBlockBytes = size
				b.ReportMetric(100*ablationMiss(b, opt), "solo-miss-%")
			}
		})
	}
}

// BenchmarkAblationSearch compares the one-pass affinity model against
// iterated local search on the same conflict objective (the
// Petrank-Rawitz wall experiment): how much quality does search add,
// and at what analysis cost.
func BenchmarkAblationSearch(b *testing.B) {
	for _, opt := range []core.Optimizer{core.FuncAffinity(), core.FuncSearch()} {
		b.Run(opt.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(100*ablationMiss(b, opt), "solo-miss-%")
			}
		})
	}
}

// BenchmarkAblationCacheSize sweeps the instruction-cache size. The
// paper argues (§III-A) that the 32 KB I-cache is pinned by the
// VIPT-lookup trick and "unlikely to increase"; this ablation shows what
// would happen if it did: the optimization's miss reduction is large at
// 16-32 KB and evaporates once the cache holds the whole working set.
func BenchmarkAblationCacheSize(b *testing.B) {
	bench, err := ws().Bench("445.gobmk")
	if err != nil {
		b.Fatal(err)
	}
	base, err := bench.Layout("original")
	if err != nil {
		b.Fatal(err)
	}
	opt, err := bench.Layout("bb-affinity")
	if err != nil {
		b.Fatal(err)
	}
	for _, kb := range []int{16, 32, 64, 128} {
		b.Run(sprint("KB=", kb), func(b *testing.B) {
			cfg := cachesim.Config{SizeBytes: kb << 10, Assoc: 4, LineBytes: 64}
			for i := 0; i < b.N; i++ {
				mb := cachesim.SimulateSolo(cfg,
					layout.NewReplayer(base, bench.Eval.Blocks, 64, false)).Stats.MissRatio()
				mo := cachesim.SimulateSolo(cfg,
					layout.NewReplayer(opt, bench.Eval.Blocks, 64, false)).Stats.MissRatio()
				b.ReportMetric(100*mb, "base-miss-%")
				b.ReportMetric(100*mo, "opt-miss-%")
			}
		})
	}
}

// BenchmarkAblationJumpOverhead reports the code-size cost of the
// basic-block transformation's entry stubs and explicit jumps.
func BenchmarkAblationJumpOverhead(b *testing.B) {
	prof := benchProfile(b)
	for i := 0; i < b.N; i++ {
		l, rep, err := core.BBAffinity().Optimize(prof)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.JumpOverheadBytes), "overhead-B")
		b.ReportMetric(100*float64(rep.JumpOverheadBytes)/float64(l.TotalBytes), "overhead-%")
	}
}

// --- Model complexity benches (§II-B/§II-C claims) ------------------------

func BenchmarkAffinityScaling(b *testing.B) {
	prof := benchProfile(b)
	tt := prof.Blocks.Trimmed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		affinity.BuildHierarchy(tt, affinity.Options{})
	}
}

func BenchmarkTRGScaling(b *testing.B) {
	prof := benchProfile(b)
	tt := prof.Blocks.Trimmed()
	params := trg.DefaultParams(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trg.Sequence(tt, params)
	}
}

func BenchmarkFootprintClosedForm(b *testing.B) {
	prof := benchProfile(b)
	syms := prof.Blocks.Trimmed().Syms
	if len(syms) > 100000 {
		syms = syms[:100000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		footprint.NewCurve(syms, nil)
	}
}

// --- Parallel analysis benches (internal/parallel fan-out) ----------------

// phasedBenchTrace draws a 100k-occurrence phased random trace — the
// working-set shape the suite programs produce, large enough for the
// shard warm-up replays to amortize.
func phasedBenchTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(20140814))
	syms := make([]int32, 100000)
	for i := range syms {
		phase := (i / 2000) % 8
		syms[i] = int32(phase*24 + rng.Intn(64))
	}
	return trace.New(syms)
}

// BenchmarkBuildHierarchyWorkers measures the per-window affinity
// analysis (wmax=20, the paper's bound) across worker counts, with a
// shared Arena as layoutd always passes; 1 is the serial reference path.
func BenchmarkBuildHierarchyWorkers(b *testing.B) {
	tt := phasedBenchTrace()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(sprint("workers=", workers), func(b *testing.B) {
			opt := affinity.Options{WMax: 20, Workers: workers, Arena: &affinity.Arena{}}
			for i := 0; i < b.N; i++ {
				affinity.BuildHierarchy(tt, opt)
			}
		})
	}
}

// BenchmarkTRGBuildWorkers measures sharded TRG construction across
// worker counts, with a shared Arena that recycles each graph, as
// layoutd's jobs do.
func BenchmarkTRGBuildWorkers(b *testing.B) {
	tt := phasedBenchTrace()
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(sprint("workers=", workers), func(b *testing.B) {
			arena := &trg.Arena{}
			for i := 0; i < b.N; i++ {
				g, err := trg.BuildCtx(ctx, tt, 128, workers, arena)
				if err != nil {
					b.Fatal(err)
				}
				arena.PutGraph(g)
			}
		})
	}
}

// BenchmarkFootprintCurveWorkers measures the fp(w) evaluation fan-out.
func BenchmarkFootprintCurveWorkers(b *testing.B) {
	syms := phasedBenchTrace().Syms
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(sprint("workers=", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				footprint.NewCurveWorkers(syms, nil, workers)
			}
		})
	}
}

// BenchmarkCorunBatchWorkers measures the independent co-run pair
// fan-out through cachesim.SimulateCorunBatch.
func BenchmarkCorunBatchWorkers(b *testing.B) {
	sj, err := ws().Bench("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	mcf, err := ws().Bench("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	mkJobs := func() []cachesim.CorunJob {
		var jobs []cachesim.CorunJob
		for _, pair := range [][2]*Bench{{sj, mcf}, {mcf, sj}, {sj, sj}, {mcf, mcf}} {
			pr, err := pair[0].Replayer(experiments.Baseline, 64, false)
			if err != nil {
				b.Fatal(err)
			}
			er, err := pair[1].Replayer(experiments.Baseline, 64, true)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, cachesim.CorunJob{Primary: pr, Peer: er})
		}
		return jobs
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(sprint("workers=", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cachesim.SimulateCorunBatch(cachesim.L1IDefault, mkJobs(), workers)
			}
		})
	}
}

// --- helpers --------------------------------------------------------------

func sprint(prefix string, v int) string {
	// small local itoa to avoid fmt in hot bench names
	digits := [20]byte{}
	i := len(digits)
	if v == 0 {
		i--
		digits[i] = '0'
	}
	for v > 0 {
		i--
		digits[i] = byte('0' + v%10)
		v /= 10
	}
	return prefix + string(digits[i:])
}
