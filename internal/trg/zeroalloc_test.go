package trg

import (
	"context"
	"math/rand"
	"testing"

	"codelayout/internal/trace"
)

// zeroAllocTrace mirrors the affinity package's steady-state fixture: a
// phased trace that grows the edge table during warm-up.
func zeroAllocTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(9))
	syms := make([]int32, 20000)
	for i := range syms {
		phase := (i / 1000) % 4
		syms[i] = int32(phase*16 + rng.Intn(24))
	}
	return trace.New(syms)
}

// TestBuildShardZeroAlloc is the steady-state allocation guarantee of the
// TRG construction kernel: with a warmed shard state and a recycled
// graph, re-running the interleaving scan allocates nothing.
func TestBuildShardZeroAlloc(t *testing.T) {
	tt := zeroAllocTrace().Trimmed()
	maxSym := tt.MaxSym()
	const limit = 128
	st := &buildState{}
	g := NewGraph()
	ctx := context.Background()
	run := func() {
		g.Reset()
		g.ensureSym(maxSym)
		if err := buildShard(ctx, st, g, tt.Syms, maxSym, limit, 0, len(tt.Syms)); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the stack, snapshot buffer and edge table once
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("buildShard steady state allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkBuildShard reports the kernel's ns/op and allocs/op for the
// bench-regression harness; allocs/op must stay 0.
func BenchmarkBuildShard(b *testing.B) {
	tt := zeroAllocTrace().Trimmed()
	maxSym := tt.MaxSym()
	const limit = 128
	st := &buildState{}
	g := NewGraph()
	ctx := context.Background()
	run := func() error {
		g.Reset()
		g.ensureSym(maxSym)
		return buildShard(ctx, st, g, tt.Syms, maxSym, limit, 0, len(tt.Syms))
	}
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildArena measures the full construction with a shared Arena,
// recycling the result graph each iteration the way core does.
func BenchmarkBuildArena(b *testing.B) {
	tt := zeroAllocTrace()
	arena := &Arena{}
	ctx := context.Background()
	g, err := BuildCtx(ctx, tt, 128, 1, arena)
	if err != nil {
		b.Fatal(err)
	}
	arena.PutGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := BuildCtx(ctx, tt, 128, 1, arena)
		if err != nil {
			b.Fatal(err)
		}
		arena.PutGraph(g)
	}
}
