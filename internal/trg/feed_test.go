package trg

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"codelayout/internal/trace"
)

func feedGraph(t *testing.T, tr *trace.Trace, windowBlocks, workers, span, chunk int, arena *Arena) *Graph {
	t.Helper()
	f := NewFeeder(context.Background(), windowBlocks, workers, span, arena)
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
	g, err := f.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func phasedTrace(rng *rand.Rand, n, phaseLen, alpha int) *trace.Trace {
	syms := make([]int32, n)
	for i := range syms {
		phase := (i / phaseLen) % 8
		if rng.Float64() < 0.1 && phase > 0 {
			phase--
		}
		syms[i] = int32(phase*alpha + rng.Intn(alpha))
	}
	return trace.New(syms)
}

// TestFeederMatchesBuffered is the streamed-vs-buffered oracle for the
// TRG construction: feeding a trace chunk by chunk, across shard spans
// small enough to force many arrival-cut shards, must yield the same
// node order, edge set, and reduced sequence as the buffered build, at
// Workers=1 and Workers=N.
func TestFeederMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	traces := []*trace.Trace{
		phasedTrace(rng, 3000, 400, 10),
		phasedTrace(rng, 997, 100, 5),
		trace.New(func() []int32 {
			s := make([]int32, 1500)
			for i := range s {
				s[i] = int32(rng.Intn(9))
			}
			return s
		}()),
		trace.New([]int32{3}),
		trace.New(nil),
	}
	arena := &Arena{}
	for ti, tr := range traces {
		for _, window := range []int{2, 8, 64} {
			buffered := BuildWorkers(tr, window, 1)
			for _, workers := range []int{1, 4} {
				for _, span := range []int{150, 1 << 20} {
					for _, chunk := range []int{1, 37, 1024} {
						g := feedGraph(t, tr, window, workers, span, chunk, arena)
						if !reflect.DeepEqual(g.Nodes(), buffered.Nodes()) &&
							!(len(g.Nodes()) == 0 && len(buffered.Nodes()) == 0) {
							t.Fatalf("trace %d window=%d workers=%d span=%d chunk=%d: node order differs",
								ti, window, workers, span, chunk)
						}
						if !reflect.DeepEqual(g.Edges(), buffered.Edges()) {
							t.Fatalf("trace %d window=%d workers=%d span=%d chunk=%d: edges differ",
								ti, window, workers, span, chunk)
						}
						if !reflect.DeepEqual(Reduce(g, 16), Reduce(buffered, 16)) {
							t.Fatalf("trace %d window=%d workers=%d span=%d chunk=%d: reduced sequence differs",
								ti, window, workers, span, chunk)
						}
						arena.PutGraph(g)
					}
				}
			}
		}
	}
}

// TestFeederUnboundedWindowDegrades: windowBlocks <= 0 cannot stream (the
// warm span is the whole history); the feeder must still produce the
// buffered result by deferring the single shard to Finish.
func TestFeederUnboundedWindowDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := phasedTrace(rng, 800, 100, 6)
	buffered := BuildWorkers(tr, 0, 1)
	g := feedGraph(t, tr, 0, 4, 64, 100, nil)
	if !reflect.DeepEqual(g.Edges(), buffered.Edges()) {
		t.Fatal("unbounded-window feeder differs from buffered build")
	}
	if !reflect.DeepEqual(g.Nodes(), buffered.Nodes()) {
		t.Fatal("unbounded-window feeder node order differs from buffered build")
	}
}

// TestFeederUntrimmedInput: trimming happens across chunk boundaries,
// matching the buffered path's up-front Trimmed().
func TestFeederUntrimmedInput(t *testing.T) {
	syms := []int32{4, 4, 4, 1, 1, 2, 2, 2, 2, 1, 4, 4}
	tr := trace.New(syms)
	buffered := BuildWorkers(tr, 3, 1)
	for chunk := 1; chunk <= len(syms); chunk++ {
		g := feedGraph(t, tr, 3, 2, 2, chunk, nil)
		if !reflect.DeepEqual(g.Edges(), buffered.Edges()) {
			t.Fatalf("chunk=%d: untrimmed streamed graph differs", chunk)
		}
	}
}

// TestFeederCancellation: canceling the feeder's context surfaces an
// error instead of wedging.
func TestFeederCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := NewFeeder(ctx, 8, 4, 64, nil)
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

// TestResidentBuildCancelAndAlias: BuildCtx runs the Feeder over the
// resident trace in place, one shard per worker. At Workers 1 and 2, a
// canceled context returns its error and no graph; a completed build
// leaves the caller's Syms as they were; and the Arena both builds used
// then serves a graph equal to a fresh Workers 1 build's.
func TestResidentBuildCancelAndAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := phasedTrace(rng, 3000, 400, 10)
	want := BuildWorkers(tr, 8, 1)
	for _, workers := range []int{1, 2} {
		arena := &Arena{}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if g, err := BuildCtx(canceled, tr, 8, workers, arena); !errors.Is(err, context.Canceled) || g != nil {
			t.Fatalf("workers=%d: canceled build = %v, %v; want no graph and context.Canceled", workers, g, err)
		}
		before := slices.Clone(tr.Syms)
		g, err := BuildCtx(context.Background(), tr, 8, workers, arena)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Syms, before) {
			t.Fatalf("workers=%d: the build changed the caller's trace", workers)
		}
		arena.PutGraph(g)
		got, err := BuildCtx(context.Background(), tr, 8, workers, arena)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("workers=%d: a build on the reused arena differs from a fresh Workers 1 build", workers)
		}
	}
}

// TestResidentBuildReadsTrimmedInPlace: BuildCtx analyzes a trace that
// is already trimmed in place, without a copy. At Workers 1 and 2 the
// build leaves that trace as it was and equals the build from the
// untrimmed trace.
func TestResidentBuildReadsTrimmedInPlace(t *testing.T) {
	tr := phasedTrace(rand.New(rand.NewSource(12)), 3000, 400, 10)
	want := BuildWorkers(tr, 8, 1)
	trimmed := tr.Trimmed()
	before := slices.Clone(trimmed.Syms)
	for _, workers := range []int{1, 2} {
		got, err := BuildCtx(context.Background(), trimmed, 8, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(trimmed.Syms, before) {
			t.Fatalf("workers=%d: the build changed the caller's trimmed trace", workers)
		}
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("workers=%d: the in-place build differs from the untrimmed trace's", workers)
		}
	}
}

// TestFeederMemoryBounded: what a Feeder holds before Finish is
// bounded by its shard span and the accumulated graph, not by the trace
// length. 458.sjeng's basic-block profile tiled 8 times (about 2.2M
// references, 34 default-span shards) is fed in 8,192-reference chunks
// at the bb-trg window, at Workers 1 and 2. Once the last Feed has
// returned and the dispatched shards have finished, the live heap may
// exceed the heap before the first Feed by at most 64 MB (a feeder that
// kept every shard's state and partial graph held about 459 MB), and
// the graph must equal the buffered build's.
func TestFeederMemoryBounded(t *testing.T) {
	const tiles, bound = 8, 64 << 20
	one := bbTrace(t, "458.sjeng").Syms
	syms := make([]int32, 0, tiles*len(one))
	for range tiles {
		syms = append(syms, one...)
	}
	window := DefaultParams(64).WindowBlocks()
	want := BuildWorkers(trace.New(syms), window, 1)
	for _, workers := range []int{1, 2} {
		ctx := context.Background()
		before := liveHeap()
		f := NewFeeder(ctx, window, workers, 0, nil)
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
		if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Errorf("workers=%d: streamed graph differs from the buffered build", workers)
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
