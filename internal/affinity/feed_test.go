package affinity

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// feedInChunks drives a Feeder with the trace split at the given chunk
// size and returns the finished hierarchy.
func feedInChunks(t *testing.T, tr *trace.Trace, opt Options, chunk int) *Hierarchy {
	t.Helper()
	f := NewFeeder(context.Background(), opt)
	syms := tr.Syms
	for len(syms) > 0 {
		c := chunk
		if c > len(syms) {
			c = len(syms)
		}
		if err := f.Feed(syms[:c]); err != nil {
			t.Fatal(err)
		}
		syms = syms[c:]
	}
	h, err := f.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFeederMatchesBuffered is the streamed-vs-buffered oracle: feeding
// a trace chunk by chunk — across shard spans small enough to force many
// arrival-cut shards — must yield a hierarchy byte-identical to the
// buffered build, at Workers=1 and Workers=N.
func TestFeederMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	traces := []*trace.Trace{
		phasedTrace(rng, 4000, 500, 12),
		phasedTrace(rng, 997, 100, 5),
		trace.New(func() []int32 { // uniform random, small alphabet
			s := make([]int32, 2000)
			for i := range s {
				s[i] = int32(rng.Intn(9))
			}
			return s
		}()),
		fig1Trace(),
		trace.New([]int32{3}),
		trace.New(nil),
	}
	arena := &Arena{}
	for ti, tr := range traces {
		for _, wmax := range []int{2, 5, DefaultWMax} {
			buffered := BuildHierarchy(tr, Options{WMax: wmax, Workers: 1})
			for _, workers := range []int{1, 4} {
				for _, span := range []int{150, 1 << 20} {
					opt := Options{WMax: wmax, Workers: workers, Arena: arena, FeedShardSpan: span}
					for _, chunk := range []int{1, 37, 1024} {
						h := feedInChunks(t, tr, opt, chunk)
						if !reflect.DeepEqual(h.Levels, buffered.Levels) {
							t.Fatalf("trace %d wmax=%d workers=%d span=%d chunk=%d: streamed hierarchy differs",
								ti, wmax, workers, span, chunk)
						}
						if !reflect.DeepEqual(h.Sequence(), buffered.Sequence()) {
							t.Fatalf("trace %d wmax=%d workers=%d span=%d chunk=%d: streamed sequence differs",
								ti, wmax, workers, span, chunk)
						}
					}
				}
			}
		}
	}
}

// TestFeederUntrimmedInput: the feeder trims across chunk boundaries —
// a run of one symbol split over many Feed calls collapses exactly as
// the buffered path's up-front Trimmed() does.
func TestFeederUntrimmedInput(t *testing.T) {
	syms := []int32{4, 4, 4, 1, 1, 2, 2, 2, 2, 1, 4, 4}
	tr := trace.New(syms)
	buffered := BuildHierarchy(tr, Options{WMax: 3, Workers: 1})
	for chunk := 1; chunk <= len(syms); chunk++ {
		h := feedInChunks(t, tr, Options{WMax: 3, Workers: 2, FeedShardSpan: 2}, chunk)
		if !reflect.DeepEqual(h.Levels, buffered.Levels) {
			t.Fatalf("chunk=%d: untrimmed streamed hierarchy differs", chunk)
		}
	}
}

// TestFeederLowDiversityTail: a trace whose tail never produces wmax
// distinct symbols after a cut leaves the cut pending until Finish; the
// result must still match the buffered build.
func TestFeederLowDiversityTail(t *testing.T) {
	syms := make([]int32, 0, 1200)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		syms = append(syms, int32(rng.Intn(30)))
	}
	for i := 0; i < 600; i++ { // two-symbol tail: never 5 distinct again
		syms = append(syms, int32(i%2))
	}
	tr := trace.New(syms)
	buffered := BuildHierarchy(tr, Options{WMax: 5, Workers: 1})
	h := feedInChunks(t, tr, Options{WMax: 5, Workers: 4, FeedShardSpan: 100}, 64)
	if !reflect.DeepEqual(h.Levels, buffered.Levels) {
		t.Fatal("low-diversity tail: streamed hierarchy differs from buffered")
	}
}

// TestFeederAbort: aborting mid-stream must drain cleanly (no panic, no
// deadlock) and leave the arena reusable.
func TestFeederAbort(t *testing.T) {
	arena := &Arena{}
	rng := rand.New(rand.NewSource(5))
	f := NewFeeder(context.Background(), Options{WMax: 4, Workers: 4, Arena: arena, FeedShardSpan: 64})
	chunk := make([]int32, 256)
	for i := 0; i < 8; i++ {
		for j := range chunk {
			chunk[j] = int32(rng.Intn(40))
		}
		if err := f.Feed(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Abort()
	// The arena still serves a correct buffered build afterwards.
	tr := phasedTrace(rng, 1000, 100, 8)
	a := BuildHierarchy(tr, Options{WMax: 4, Workers: 4, Arena: arena})
	b := BuildHierarchy(tr, Options{WMax: 4, Workers: 1})
	if !reflect.DeepEqual(a.Levels, b.Levels) {
		t.Fatal("arena corrupted by aborted feeder")
	}
}

// TestFeederCancellation: canceling the feeder's context surfaces the
// error from Feed or Finish instead of wedging.
func TestFeederCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := NewFeeder(ctx, Options{WMax: 4, Workers: 4, FeedShardSpan: 64})
	cancel()
	chunk := make([]int32, 4096)
	for i := range chunk {
		chunk[i] = int32(i % 100)
	}
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = f.Feed(chunk)
	}
	if err == nil {
		_, err = f.Finish(context.Background())
	}
	if err == nil {
		t.Fatal("canceled feeder reported no error")
	}
	f.Abort()
}

// TestResidentBuildCancelAndAlias: the buffered build runs the Feeder
// over the resident trace in place, cut into many shards here. At
// Workers 1 and 2, a canceled context returns its error and no
// hierarchy; a completed build leaves the caller's Syms as they were;
// and the Arena both builds used then serves a hierarchy equal to a
// fresh Workers 1 build's.
func TestResidentBuildCancelAndAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := phasedTrace(rng, 4000, 500, 12)
	want := BuildHierarchy(tr, Options{WMax: 5, Workers: 1})
	for _, workers := range []int{1, 2} {
		arena := &Arena{}
		opt := Options{WMax: 5, Workers: workers, Arena: arena, FeedShardSpan: 150}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if h, err := BuildHierarchyCtx(canceled, tr, opt); !errors.Is(err, context.Canceled) || h != nil {
			t.Fatalf("workers=%d: canceled build = %v, %v; want no hierarchy and context.Canceled", workers, h, err)
		}
		before := slices.Clone(tr.Syms)
		if _, err := BuildHierarchyCtx(context.Background(), tr, opt); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Syms, before) {
			t.Fatalf("workers=%d: the build changed the caller's trace", workers)
		}
		got, err := BuildHierarchyCtx(context.Background(), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Fatalf("workers=%d: a build on the reused arena differs from a fresh Workers 1 build", workers)
		}
	}
}

// TestResidentBuildReadsTrimmedInPlace: BuildHierarchyCtx analyzes a
// trace that is already trimmed in place, without a copy. At Workers 1
// and 2 the build leaves that trace as it was and equals the build from
// the untrimmed trace.
func TestResidentBuildReadsTrimmedInPlace(t *testing.T) {
	tr := phasedTrace(rand.New(rand.NewSource(12)), 4000, 500, 12)
	want := BuildHierarchy(tr, Options{WMax: 5, Workers: 1})
	trimmed := tr.Trimmed()
	before := slices.Clone(trimmed.Syms)
	for _, workers := range []int{1, 2} {
		got, err := BuildHierarchyCtx(context.Background(), trimmed, Options{WMax: 5, Workers: workers, FeedShardSpan: 150})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(trimmed.Syms, before) {
			t.Fatalf("workers=%d: the build changed the caller's trimmed trace", workers)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Fatalf("workers=%d: the in-place build differs from the untrimmed trace's", workers)
		}
	}
}

// TestFeederMemoryBounded: what a Feeder holds before Finish is
// bounded by its shard span, not by the trace length. 403.gcc's
// basic-block profile tiled 16 times (about 4.4M references, 68
// default-span shards) is fed in 8,192-reference chunks at Workers 1
// and 2. Once the last Feed has returned and the dispatched shards have
// finished, the live heap may exceed the heap before the first Feed by
// at most 64 MB (a feeder that kept every shard's state held about
// 455 MB), and the hierarchy must equal the buffered build's.
func TestFeederMemoryBounded(t *testing.T) {
	const tiles, bound = 16, 64 << 20
	one := bbProfile(t, "403.gcc").Syms
	syms := make([]int32, 0, tiles*len(one))
	for range tiles {
		syms = append(syms, one...)
	}
	want := BuildHierarchy(trace.New(syms), Options{Workers: 1})
	for _, workers := range []int{1, 2} {
		ctx := context.Background()
		before := liveHeap()
		f := NewFeeder(ctx, Options{Workers: workers})
		for rest := syms; len(rest) > 0; {
			c := min(8192, len(rest))
			if err := f.Feed(rest[:c]); err != nil {
				t.Fatal(err)
			}
			rest = rest[c:]
		}
		drain(t, f, workers)
		held := int64(liveHeap()) - int64(before)
		got, err := f.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("workers=%d: %d references, %.1f MB held before Finish", workers, len(syms), float64(held)/(1<<20))
		if held > bound {
			t.Errorf("workers=%d: the feeder held %.1f MB before Finish, bound %d MB", workers, float64(held)/(1<<20), bound>>20)
		}
		if !reflect.DeepEqual(got.Levels, want.Levels) {
			t.Errorf("workers=%d: streamed hierarchy differs from the buffered build", workers)
		}
	}
}

// drain returns once every shard f has dispatched has finished, so a
// measurement sees what the feeder keeps rather than the shards still
// running: it occupies each of the pool's workers with a task that
// waits for the others, and no worker starts one before finishing its
// earlier tasks.
func drain(t *testing.T, f *Feeder, workers int) {
	t.Helper()
	var all sync.WaitGroup
	all.Add(workers)
	for range workers {
		if err := f.pool.Submit(func(context.Context) error {
			all.Done()
			all.Wait()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	all.Wait()
}

// liveHeap returns the heap bytes live after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkStreamFeed measures the feeder end-to-end on a phased trace,
// arena-recycled: the steady-state target is allocation-light dispatch
// (slab copies and pooled shard states only).
func BenchmarkStreamFeed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tr := phasedTrace(rng, 1<<17, 4096, 48)
	arena := &Arena{}
	opt := Options{WMax: DefaultWMax, Workers: 4, Arena: arena, FeedShardSpan: 1 << 14}
	// Warm the arena pools once.
	h := feedBench(b, tr, opt)
	_ = h
	b.SetBytes(int64(4 * len(tr.Syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedBench(b, tr, opt)
	}
}

func feedBench(b *testing.B, tr *trace.Trace, opt Options) *Hierarchy {
	f := NewFeeder(context.Background(), opt)
	syms := tr.Syms
	for len(syms) > 0 {
		c := 8192
		if c > len(syms) {
			c = len(syms)
		}
		if err := f.Feed(syms[:c]); err != nil {
			b.Fatal(err)
		}
		syms = syms[c:]
	}
	h, err := f.Finish(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// TestHierarchySpanTimesStackPasses: BuildHierarchyCtx's
// affinity.hierarchy span covers the whole buffered build, stack passes
// included, and a Feeder's Finish records the span too. Over 200,000
// occurrences of 64 symbols the passes outweigh the level merge many
// times, so a span opened only after them would start later than it
// lasts; this one starts as the build does (the recorder's epoch is
// taken just before the call).
func TestHierarchySpanTimesStackPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	syms := make([]int32, 200000)
	for i := range syms {
		syms[i] = int32(rng.Intn(64))
	}
	tr := trace.New(syms)
	hierarchySpan := func(rec *obs.Recorder) obs.SpanData {
		t.Helper()
		spans, _ := rec.Snapshot()
		if len(spans) != 1 || spans[0].Name != "affinity.hierarchy" {
			t.Fatalf("spans = %+v, want one affinity.hierarchy", spans)
		}
		if a := spans[0].Attrs[0]; a.Key != "trace_len" || a.Value != int64(tr.Trimmed().Len()) {
			t.Fatalf("first attribute %+v, want trace_len %d", a, tr.Trimmed().Len())
		}
		return spans[0]
	}

	rec := obs.NewRecorder(0)
	if _, err := BuildHierarchyCtx(obs.WithRecorder(context.Background(), rec), tr, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if sp := hierarchySpan(rec); sp.Start >= sp.Dur {
		t.Errorf("buffered span starts %v into the build and lasts %v: it misses the stack passes", sp.Start, sp.Dur)
	}

	rec = obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	f := NewFeeder(ctx, Options{Workers: 1})
	if err := f.Feed(syms); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	hierarchySpan(rec)
}
