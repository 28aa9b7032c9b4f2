package trg

import (
	"context"
	"reflect"
	"testing"

	"codelayout/internal/interp"
	"codelayout/internal/progen"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
)

// bbTrace returns the named program's training-input basic-block trace,
// trimmed: what a bb-trg feed analyzes.
func bbTrace(tb testing.TB, name string) *trace.Trace {
	tb.Helper()
	spec, err := progen.SpecByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Options{Seed: 101})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Blocks.Trimmed()
}

// referenceBuild is the construction as first written: one serial LRU
// stack walk and one Go map add per interleaving, keyed by the packed
// pair, with nodes in first-occurrence order. It is the oracle the
// directed rows are held to.
func referenceBuild(syms []int32, limit int) ([]int32, map[int64]int64) {
	var maxSym int32
	for _, s := range syms {
		maxSym = max(maxSym, s)
	}
	var nodes []int32
	seen := map[int32]bool{}
	weights := map[int64]int64{}
	stack := stackdist.NewLRUStack(maxSym)
	for _, cur := range syms {
		if !seen[cur] {
			seen[cur] = true
			nodes = append(nodes, cur)
		}
		if between, found := stack.AppendTopKUntil(nil, limit, cur); found {
			for _, x := range between {
				weights[pairKey(cur, x)]++
			}
		}
		stack.Access(cur)
	}
	return nodes, weights
}

// sameGraph requires g to have the reference's node order and edge
// weights.
func sameGraph(t *testing.T, what string, g *Graph, nodes []int32, weights map[int64]int64) {
	t.Helper()
	if !reflect.DeepEqual(g.Nodes(), nodes) {
		t.Fatalf("%s: node order differs from the reference", what)
	}
	edges := g.Edges()
	if len(edges) != len(weights) {
		t.Fatalf("%s: %d edges, reference %d", what, len(edges), len(weights))
	}
	for _, e := range edges {
		if want := weights[pairKey(e.A, e.B)]; e.Weight != want {
			t.Fatalf("%s: edge (%d, %d) weighs %d, reference %d", what, e.A, e.B, e.Weight, want)
		}
	}
}

// feedGraphTB streams syms through a Feeder in chunk-reference chunks.
func feedGraphTB(tb testing.TB, syms []int32, window, workers, span, chunk int, arena *Arena) *Graph {
	tb.Helper()
	f := NewFeeder(context.Background(), window, workers, span, arena)
	for len(syms) > 0 {
		c := min(chunk, len(syms))
		if err := f.Feed(syms[:c]); err != nil {
			tb.Fatal(err)
		}
		syms = syms[c:]
	}
	g, err := f.Finish(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestRowsMatchReferenceOnSuite holds the directed rows to the map
// reference on real basic-block profiles at the bb-trg window, through
// every path that builds them: the buffered build at Workers 1 and 2,
// and the Feeder at its default shard span and at the minimum span of
// 4,096 occurrences, which cuts the trace into many shards whose rows
// merge. The traces are cut to 140,000 references, past two default
// spans, to keep the map reference fast.
func TestRowsMatchReferenceOnSuite(t *testing.T) {
	window := DefaultParams(64).WindowBlocks()
	for _, name := range []string{"429.mcf", "458.sjeng"} {
		tt := bbTrace(t, name)
		tt = trace.New(tt.Syms[:min(len(tt.Syms), 140_000)])
		nodes, weights := referenceBuild(tt.Syms, window)
		arena := &Arena{}
		for _, workers := range []int{1, 2} {
			g, err := BuildCtx(context.Background(), tt, window, workers, arena)
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, name+" buffered", g, nodes, weights)
			if workers == 1 {
				t.Logf("%s: %d references, %d edges; rows: %d directed entries in %d bytes",
					name, tt.Len(), len(weights), g.rows.Len(), g.rows.Bytes())
			}
			arena.PutGraph(g)
		}
		for _, span := range []int{0, 4096} {
			g := feedGraphTB(t, tt.Syms, window, 1, span, 8192, arena)
			sameGraph(t, name+" feed", g, nodes, weights)
			arena.PutGraph(g)
		}
	}
}

// FuzzFeederMatchesBuild streams a fuzzed trace through a Feeder at
// fuzzed chunk and shard boundaries and requires the node order and the
// edges of the buffered build at Workers 1. The input decodes as:
//
//	data[0]     Workers 1 or 2 (low bit), window 2..17 blocks (next four bits)
//	data[1]     shard span above the minimum (4·window)
//	data[2]     number of chunk sizes, 1..8
//	next bytes  the chunk sizes, 1..256, cycled over the trace
//	the rest    the trace, one symbol per byte, over 64 symbols, cut
//	            to maxFuzzTrace references so each run stays fast
func FuzzFeederMatchesBuild(f *testing.F) {
	for _, seed := range feedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		workers := 1 + int(data[0]&1)
		window := 2 + int(data[0]>>1&15)
		span := 4*window + int(data[1])
		nchunks := 1 + int(data[2]&7)
		data = data[3:]
		chunks := make([]int, 0, nchunks)
		for len(chunks) < nchunks && len(data) > 0 {
			chunks = append(chunks, 1+int(data[0]))
			data = data[1:]
		}
		if len(chunks) == 0 {
			chunks = append(chunks, 1)
		}
		syms := make([]int32, min(len(data), maxFuzzTrace))
		for i, b := range data[:len(syms)] {
			syms[i] = int32(b & 63)
		}
		want, err := BuildCtx(context.Background(), trace.New(syms), window, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		fd := NewFeeder(context.Background(), window, workers, span, nil)
		for i, rest := 0, syms; len(rest) > 0; i++ {
			c := min(chunks[i%len(chunks)], len(rest))
			if err := fd.Feed(rest[:c]); err != nil {
				t.Fatal(err)
			}
			rest = rest[c:]
		}
		got, err := fd.Finish(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("workers=%d window=%d span=%d chunks=%v: streamed graph differs from the buffered build",
				workers, window, span, chunks)
		}
	})
}

// maxFuzzTrace caps a FuzzFeederMatchesBuild trace: long enough for
// hundreds of minimum-span shards.
const maxFuzzTrace = 4096

// feedSeed encodes one FuzzFeederMatchesBuild input.
func feedSeed(workers, window, spanExtra int, chunks []int, syms []int) []byte {
	b := []byte{byte(workers-1) | byte(window-2)<<1, byte(spanExtra), byte(len(chunks) - 1)}
	for _, c := range chunks {
		b = append(b, byte(c-1))
	}
	for _, s := range syms {
		b = append(b, byte(s))
	}
	return b
}

// feedSeeds covers the edge cases: an empty trace, a single occurrence,
// a single symbol, the minimum shard span with one-reference chunks, and
// longer phased traces at both worker counts.
func feedSeeds() [][]byte {
	phased := func(n, alpha int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = (i/40%4)*alpha/2 + (i*i+i/3)%alpha
		}
		return s
	}
	return [][]byte{
		feedSeed(1, 3, 0, []int{8}, nil),
		feedSeed(2, 2, 0, []int{1}, []int{5}),
		feedSeed(1, 4, 0, []int{3}, []int{9, 9, 9, 9, 9, 9, 9, 9}),
		feedSeed(1, 8, 0, []int{1}, phased(200, 16)),
		feedSeed(2, 2, 0, []int{1, 7}, phased(120, 6)),
		feedSeed(2, 9, 37, []int{256, 3, 90}, phased(500, 30)),
		feedSeed(1, 17, 255, []int{64}, phased(900, 64)),
		feedSeed(2, 5, 3, []int{5, 1, 2, 200}, phased(400, 12)),
	}
}

// BenchmarkBBTRGFeed runs the bb-trg feed of 458.sjeng's profile the way
// layoutd runs it — 8,192-reference chunks, Workers 1, a shared Arena —
// and reduces the graph into the job's 256 slots.
func BenchmarkBBTRGFeed(b *testing.B) {
	syms := bbTrace(b, "458.sjeng").Syms
	p := DefaultParams(64)
	arena := &Arena{}
	run := func() {
		g := feedGraphTB(b, syms, p.WindowBlocks(), 1, 0, 8192, arena)
		reduceSink = Reduce(g, p.Slots())
		arena.PutGraph(g)
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
