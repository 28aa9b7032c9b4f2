package affinity

import (
	"context"
	"reflect"
	"testing"

	"codelayout/internal/flathash"
	"codelayout/internal/interp"
	"codelayout/internal/progen"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
)

// bbProfile returns the named program's training-input basic-block
// trace, unpruned and trimmed: what a bb-affinity feed analyzes.
func bbProfile(tb testing.TB, name string) *trace.Trace {
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

// referenceMinWindows computes the minimal-window table as the stack
// passes first did: the same two LRU stack passes, serial, with each
// pair's coverage kept as a histogram of 2·(wmax+1) counters in a Go
// map (depth, by which side's occurrence was covered) and folded by
// fullCoverageW. It is the oracle the coverage rows are held to.
func referenceMinWindows(syms []int32, wmax int) map[int64]int64 {
	var maxSym int32
	occ := map[int32]int64{}
	for _, s := range syms {
		maxSym = max(maxSym, s)
		occ[s]++
	}
	stack := stackdist.NewLRUStack(maxSym)
	back := make([][]int32, len(syms))
	for i, s := range syms {
		stack.Access(s)
		back[i] = stack.AppendTopK(nil, wmax)
	}
	stride := wmax + 1
	hist := map[int64][]uint32{}
	best := map[int32]int{}
	stack = stackdist.NewLRUStack(maxSym)
	for i := len(syms) - 1; i >= 0; i-- {
		cur := syms[i]
		stack.Access(cur)
		clear(best)
		note := func(y int32, d int) {
			if b, ok := best[y]; !ok || d < b {
				best[y] = d
			}
		}
		for k, y := range back[i][1:] {
			note(y, k+2)
		}
		fwd := stack.AppendTopK(nil, wmax)
		for d := 1; d < len(fwd); d++ {
			note(fwd[d], d+1)
		}
		for y, d := range best {
			k := pairKey(cur, y)
			if hist[k] == nil {
				hist[k] = make([]uint32, 2*stride)
			}
			if cur > y {
				d += stride
			}
			hist[k][d]++
		}
	}
	minW := map[int64]int64{}
	for k, h := range hist {
		wx := fullCoverageW(h[:stride], occ[int32(k>>32)])
		wy := fullCoverageW(h[stride:], occ[int32(k)])
		if wx >= 0 && wy >= 0 {
			minW[k] = int64(max(wx, wy))
		}
	}
	return minW
}

// fullCoverageW returns the smallest w such that the cumulative count of
// occurrences with minimal footprint <= w reaches total, or -1 if the
// histogram never reaches total.
func fullCoverageW(counts []uint32, total int64) int {
	var cum int64
	for d := range counts {
		cum += int64(counts[d])
		if cum == total {
			return d
		}
	}
	return -1
}

// tableMap copies a minimal-window table into a map for comparison.
func tableMap(t *flathash.Sum64) map[int64]int64 {
	m := make(map[int64]int64, t.Len())
	t.ForEach(func(k, w int64) { m[k] = w })
	return m
}

// feedMinWindows streams syms through a Feeder in chunk-reference
// chunks and returns its minimal-window table.
func feedMinWindows(tb testing.TB, syms []int32, opt Options, chunk int) map[int64]int64 {
	tb.Helper()
	f := NewFeeder(context.Background(), opt)
	for len(syms) > 0 {
		c := min(chunk, len(syms))
		if err := f.Feed(syms[:c]); err != nil {
			tb.Fatal(err)
		}
		syms = syms[c:]
	}
	minW, err := f.minWindows()
	if err != nil {
		tb.Fatal(err)
	}
	if minW == nil {
		return map[int64]int64{}
	}
	return tableMap(minW)
}

// residentMinWindows runs the Feeder's resident entry over a trimmed
// trace, as BuildHierarchyCtx does, and returns its minimal-window table.
func residentMinWindows(ctx context.Context, tt *trace.Trace, wmax, workers int, arena *Arena) (*flathash.Sum64, error) {
	f := NewFeeder(ctx, Options{WMax: wmax, Workers: workers, Arena: arena})
	f.feedResident(tt.Syms, workers)
	return f.minWindows()
}

// TestRowsMatchReferenceOnSuite holds the coverage rows to the
// histogram-map reference on real basic-block profiles, through every
// path that builds them: the resident entry at Workers 1 and 2, and the
// Feeder at its default shard span and at a 4,096-occurrence span, which
// cuts the trace into dozens of shards whose rows merge. The traces are
// cut to 150,000 references, past two default spans, to keep the map
// reference fast.
func TestRowsMatchReferenceOnSuite(t *testing.T) {
	for _, name := range []string{"403.gcc", "458.sjeng"} {
		tt := bbProfile(t, name)
		tt = trace.New(tt.Syms[:min(len(tt.Syms), 150_000)])
		want := referenceMinWindows(tt.Syms, DefaultWMax)
		arena := &Arena{}
		for _, workers := range []int{1, 2} {
			minW, err := residentMinWindows(context.Background(), tt, DefaultWMax, workers, arena)
			if err != nil {
				t.Fatal(err)
			}
			if got := tableMap(minW); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: %d minimal windows, reference %d (or values differ)", name, workers, len(got), len(want))
			}
		}
		for _, span := range []int{0, 4096} {
			opt := Options{Workers: 1, Arena: arena, FeedShardSpan: span}
			if got := feedMinWindows(t, tt.Syms, opt, 8192); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s feed span=%d: %d minimal windows, reference %d (or values differ)", name, span, len(got), len(want))
			}
		}
		st := &shardState{}
		if err := shardPairHists(context.Background(), st, tt.Syms, tt.MaxSym(), DefaultWMax, 0, len(tt.Syms)); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d references, %d affine pairs; one shard's candidate lists: %d entries in %d bytes",
			name, tt.Len(), len(want), st.lists.Len(), st.lists.Bytes())
	}
}

// TestWideWindowDepths: coverage depths stay exact past 255. A trace
// cycling over 300 symbols needs windows up to 300, and at WMax 300 the
// stack passes must give every pair the window the definitions give it.
func TestWideWindowDepths(t *testing.T) {
	const wmax = 300
	syms := make([]int32, 4000)
	for i := range syms {
		syms[i] = int32(i % 300)
	}
	tt := trace.New(syms)
	want := map[int64]int64{}
	for k, w := range pairMinWindows(syms) {
		if w <= wmax {
			want[k] = int64(w)
		}
	}
	minW, err := residentMinWindows(context.Background(), tt, wmax, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tableMap(minW)
	differ := 0
	for k, w := range want {
		if got[k] != w {
			differ++
		}
	}
	if differ > 0 || len(got) != len(want) {
		t.Fatalf("WMax %d: %d of %d minimal windows differ from the definitions (%d entries, want %d)",
			wmax, differ, len(want), len(got), len(want))
	}
}

// FuzzFeederMatchesBuild streams a fuzzed trace through a Feeder at
// fuzzed chunk and shard boundaries and requires every partition of the
// buffered build at Workers 1. The input decodes as:
//
//	data[0]     Workers 1 or 2 (low bit), WMax 1..8 (next three bits)
//	data[1]     shard span above the minimum (minShardSpan·WMax)
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
		wmax := 1 + int(data[0]>>1&7)
		span := minShardSpan*wmax + int(data[1])
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
		want, err := BuildHierarchyCtx(context.Background(), trace.New(syms), Options{WMax: wmax, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fd := NewFeeder(context.Background(), Options{WMax: wmax, Workers: workers, FeedShardSpan: span})
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
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Fatalf("workers=%d wmax=%d span=%d chunks=%v: streamed hierarchy differs from the buffered build",
				workers, wmax, span, chunks)
		}
	})
}

// maxFuzzTrace caps a FuzzFeederMatchesBuild trace: long enough for
// hundreds of minimum-span shards.
const maxFuzzTrace = 4096

// feedSeed encodes one FuzzFeederMatchesBuild input.
func feedSeed(workers, wmax, spanExtra int, chunks []int, syms []int) []byte {
	b := []byte{byte(workers-1) | byte(wmax-1)<<1, byte(spanExtra), byte(len(chunks) - 1)}
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
		feedSeed(2, 1, 0, []int{1}, []int{5}),
		feedSeed(1, 2, 0, []int{3}, []int{9, 9, 9, 9, 9, 9, 9, 9}),
		feedSeed(1, 8, 0, []int{1}, phased(200, 16)),
		feedSeed(2, 2, 0, []int{1, 7}, phased(120, 6)),
		feedSeed(2, 5, 37, []int{256, 3, 90}, phased(500, 30)),
		feedSeed(1, 4, 255, []int{64}, phased(700, 64)),
		feedSeed(2, 8, 3, []int{5, 1, 2, 200}, phased(400, 12)),
	}
}

// BenchmarkBBAffinityFeed runs the bb-affinity feed of 403.gcc's
// profile the way layoutd runs it: 8,192-reference chunks, Workers 1, a
// shared Arena, through Finish.
func BenchmarkBBAffinityFeed(b *testing.B) {
	syms := bbProfile(b, "403.gcc").Syms
	arena := &Arena{}
	ctx := context.Background()
	run := func() {
		f := NewFeeder(ctx, Options{Workers: 1, Arena: arena})
		for rest := syms; len(rest) > 0; {
			c := min(8192, len(rest))
			if err := f.Feed(rest[:c]); err != nil {
				b.Fatal(err)
			}
			rest = rest[c:]
		}
		if _, err := f.Finish(ctx); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
