package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/layout"
	"codelayout/internal/progen"
)

// feedOptimize runs the streaming pipeline over the profile's raw block
// trace split at the given chunk size.
func feedOptimize(t *testing.T, o Optimizer, prof *Profile, chunk int) (*layout.Layout, Report) {
	t.Helper()
	f, err := o.NewFeed(context.Background(), prof.Prog)
	if err != nil {
		t.Fatal(err)
	}
	syms := prof.Blocks.Syms
	for len(syms) > 0 {
		c := chunk
		if c > len(syms) {
			c = len(syms)
		}
		if err := f.Feed(context.Background(), syms[:c]); err != nil {
			t.Fatal(err)
		}
		syms = syms[c:]
	}
	l, rep, err := f.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return l, rep
}

// TestFeedMatchesOptimize is the end-to-end streamed-vs-buffered oracle:
// for every feed-mode optimizer, pushing the trace chunk by chunk must
// produce a Report and layout byte-identical to the buffered
// OptimizeCtx, at Workers=1 and Workers=N, with shard spans small
// enough to force many arrival-cut shards.
func TestFeedMatchesOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2; i++ {
		spec := randomSpec(rng, i)
		p, err := progen.Generate(spec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		prof, err := ProfileProgram(p, TrainSeed)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, base := range AllOptimizers() {
			if !base.FeedSupported(p) {
				t.Fatalf("case %d: %s must support feed-mode at defaults", i, base.Name())
			}
			o := base
			o.Workers = 1
			wantL, wantRep, err := o.Optimize(prof)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, o.Name(), err)
			}
			for _, workers := range []int{1, 4} {
				for _, chunk := range []int{97, 8192} {
					o := base
					o.Workers = workers
					o.feedShardSpan = 300
					l, rep := feedOptimize(t, o, prof, chunk)
					if !reflect.DeepEqual(rep, wantRep) {
						t.Fatalf("case %d %s workers=%d chunk=%d: report %+v != buffered %+v",
							i, o.Name(), workers, chunk, rep, wantRep)
					}
					if !reflect.DeepEqual(l.Addr, wantL.Addr) ||
						!reflect.DeepEqual(l.Order(), wantL.Order()) ||
						!reflect.DeepEqual(l.StubAddr, wantL.StubAddr) ||
						l.TotalBytes != wantL.TotalBytes {
						t.Fatalf("case %d %s workers=%d chunk=%d: layout differs from buffered",
							i, o.Name(), workers, chunk)
					}
				}
			}
		}
	}
}

// TestFeedSupportedGate: baselines never stream; paper optimizers stream
// only while pruning is provably the identity.
func TestFeedSupportedGate(t *testing.T) {
	p, err := LoadProgram("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	// The intra baseline shares the affinity analysis — only its final
	// transformation differs — so it streams too.
	for _, o := range append(AllOptimizers(), BBAffinityIntra()) {
		if !o.FeedSupported(p) {
			t.Errorf("%s: want feed-mode at defaults", o.Name())
		}
	}
	for _, o := range []Optimizer{FuncCallGraph(), FuncCMG(), FuncSearch()} {
		if o.FeedSupported(p) {
			t.Errorf("%s: baselines must not claim feed-mode", o.Name())
		}
	}
	tight := BBAffinity()
	tight.PruneTopN = p.NumBlocks() - 1 // a real prune: needs full-trace counts
	if tight.FeedSupported(p) {
		t.Error("effective pruning must disable feed-mode")
	}
	tight.PruneTopN = p.NumBlocks()
	if !tight.FeedSupported(p) {
		t.Error("prune bound covering the alphabet must keep feed-mode")
	}
	if (Optimizer{}).FeedSupported(nil) {
		t.Error("nil program must not claim feed-mode")
	}
}

// TestFeedRejectsOutOfRangeSymbol: a hostile or mismatched trace fails
// fast with a diagnosable error instead of corrupting the analysis.
func TestFeedRejectsOutOfRangeSymbol(t *testing.T) {
	p, err := LoadProgram("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Optimizer{FuncAffinity(), BBTRG()} {
		f, err := o.NewFeed(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Feed(context.Background(), []int32{0, int32(p.NumBlocks())}); err == nil {
			t.Errorf("%s: out-of-range block accepted", o.Name())
		}
		f.Abort()
	}
}

// TestFeedEmptyTrace: finishing with no chunks mirrors the buffered
// pipeline on an empty profile trace.
func TestFeedEmptyTrace(t *testing.T) {
	p, err := LoadProgram("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	f, err := BBAffinity().NewFeed(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := f.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceLen != 0 || rep.SeqLen != 0 || rep.Retention != 1.0 {
		t.Fatalf("empty feed report = %+v", rep)
	}
}
