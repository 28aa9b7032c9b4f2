package trg

import (
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/trace"
)

// TestFigure2Reduction reproduces the reduction walk-through of the
// paper's Figure 2 with 3 code slots. The narrated steps are:
//
//  1. E<A,B> is reduced: A takes slot 1, B takes slot 2.
//  2. E<E,F> is reduced: E takes slot 3 (empty); F conflicts least with
//     slot 1's node A, joins it, and F's edges to the other slot nodes
//     (E<B,F>) are removed.
//  3. C conflicts least with slot 3's node E and is combined with it.
//
// Output sequence: A B E F C (round-robin over the slot lists).
//
// The figure's edge labels are partly illegible in the source; the
// weights below are reconstructed so that every narrated step follows
// from the algorithm (heaviest-edge order A-B, E-F, then a C edge; F's
// minimum conflict is A; C's minimum conflict is E).
func TestFigure2Reduction(t *testing.T) {
	const (
		A int32 = 0
		B int32 = 1
		C int32 = 2
		E int32 = 3
		F int32 = 4
	)
	g := NewGraph()
	// Register nodes in the figure's display order for deterministic
	// isolated-node handling (all nodes gain edges here anyway).
	for _, n := range []int32{A, B, C, E, F} {
		g.AddNode(n)
	}
	g.AddWeight(A, B, 50)
	g.AddWeight(E, F, 45)
	g.AddWeight(C, B, 40)
	g.AddWeight(C, A, 30)
	g.AddWeight(B, F, 20)
	g.AddWeight(C, E, 15)
	g.AddWeight(A, F, 10)

	got := Reduce(g, 3)
	want := []int32{A, B, E, F, C}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reduce = %v, want %v (A B E F C)", got, want)
	}
}

func TestBuildDefinitionExample(t *testing.T) {
	// Trace: A B A. A's two successive occurrences interleave one B, so
	// edge (A,B) gains weight 1 from A's reuse. B has no reuse.
	g := Build(trace.New([]int32{0, 1, 0}), 0)
	if w := g.Weight(0, 1); w != 1 {
		t.Errorf("Weight(A,B) = %d, want 1", w)
	}
	// Trace: A B A B A — A reuses twice (each over one B), B once.
	g = Build(trace.New([]int32{0, 1, 0, 1, 0}), 0)
	if w := g.Weight(0, 1); w != 3 {
		t.Errorf("Weight(A,B) = %d, want 3 (two A reuses + one B reuse)", w)
	}
}

func TestBuildCountsBothDirections(t *testing.T) {
	// A X A ... X A X: conflicts between A and X accumulate from both
	// endpoints' reuses.
	g := Build(trace.New([]int32{0, 7, 0, 7}), 0)
	// A reuse over X: +1; X reuse over A: +1.
	if w := g.Weight(0, 7); w != 2 {
		t.Errorf("Weight = %d, want 2", w)
	}
}

func TestBuildNoSelfEdgesAndTrims(t *testing.T) {
	g := Build(trace.New([]int32{3, 3, 3, 3}), 0)
	if g.NumEdges() != 0 {
		t.Errorf("self-only trace produced %d edges", g.NumEdges())
	}
	if len(g.Nodes()) != 1 {
		t.Errorf("nodes = %v, want [3]", g.Nodes())
	}
}

func TestBuildWindowBound(t *testing.T) {
	// A ... 5 distinct blocks ... A: with an unbounded window the reuse
	// of A counts 5 conflicts; with a window of 4 blocks it counts none
	// because A's previous occurrence falls outside.
	syms := []int32{0, 1, 2, 3, 4, 5, 0}
	unbounded := Build(trace.New(syms), 0)
	if w := unbounded.Weight(0, 5); w != 1 {
		t.Errorf("unbounded Weight(0,5) = %d, want 1", w)
	}
	bounded := Build(trace.New(syms), 4)
	total := int64(0)
	for _, x := range []int32{1, 2, 3, 4, 5} {
		total += bounded.Weight(0, x)
	}
	if total != 0 {
		t.Errorf("bounded window still counted %d conflicts for A", total)
	}
	// Blocks 1..5 never reuse, so they contribute nothing either way.
	if bounded.NumEdges() != 0 {
		t.Errorf("bounded graph has %d edges, want 0", bounded.NumEdges())
	}
}

func TestReduceOutputsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := make([]int32, 3000)
	for i := range syms {
		syms[i] = int32(rng.Intn(40))
	}
	tr := trace.New(syms)
	g := Build(tr, 16)
	for _, k := range []int{1, 3, 8, 64} {
		seq := Reduce(g, k)
		seen := make(map[int32]bool)
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("k=%d: duplicate %d in sequence", k, s)
			}
			seen[s] = true
		}
		if len(seq) != len(g.Nodes()) {
			t.Fatalf("k=%d: sequence has %d blocks, want %d", k, len(seq), len(g.Nodes()))
		}
	}
}

func TestReduceIsolatedNodesAppended(t *testing.T) {
	g := NewGraph()
	g.AddNode(9)
	g.AddNode(8)
	g.AddWeight(1, 2, 5)
	seq := Reduce(g, 2)
	if len(seq) != 4 {
		t.Fatalf("sequence = %v, want 4 nodes", seq)
	}
	// Isolated nodes 9, 8 come last, in registration order.
	if seq[2] != 9 || seq[3] != 8 {
		t.Errorf("isolated tail = %v, want [... 9 8]", seq[2:])
	}
}

func TestReduceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	syms := make([]int32, 2000)
	for i := range syms {
		syms[i] = int32(rng.Intn(30))
	}
	g1 := Build(trace.New(syms), 12)
	g2 := Build(trace.New(syms), 12)
	a := Reduce(g1, 8)
	b := Reduce(g2, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("Reduce not deterministic")
	}
}

func TestReduceSeparatesHeaviestConflict(t *testing.T) {
	// The heaviest edge's endpoints must land in different slots (they
	// are the worst conflict pair).
	g := NewGraph()
	g.AddWeight(1, 2, 100)
	g.AddWeight(1, 3, 1)
	g.AddWeight(2, 3, 1)
	seq := Reduce(g, 3)
	// With 3 slots and 3 nodes, each node gets its own slot, so the
	// first sweep emits one per slot: 1 then 2 then 3.
	if !reflect.DeepEqual(seq, []int32{1, 2, 3}) {
		t.Errorf("sequence = %v, want [1 2 3]", seq)
	}
}

func TestParams(t *testing.T) {
	p := DefaultParams(256)
	// 2C = 64 KB, A*B = 256 → 256 sets; a 256-byte block covers 1 set →
	// 256 slots.
	if got := p.Slots(); got != 256 {
		t.Errorf("Slots = %d, want 256", got)
	}
	// Window: 64 KB / 256 B = 256 blocks.
	if got := p.WindowBlocks(); got != 256 {
		t.Errorf("WindowBlocks = %d, want 256", got)
	}
	// Bigger uniform blocks reduce the slot count.
	p = DefaultParams(512)
	if got := p.Slots(); got != 128 {
		t.Errorf("Slots(512B) = %d, want 128", got)
	}
	// WindowScale=1 uses the actual cache size.
	p = Params{CacheBytes: 32 << 10, Assoc: 4, LineBytes: 64, BlockBytes: 256, WindowScale: 1}
	if got := p.WindowBlocks(); got != 128 {
		t.Errorf("WindowBlocks(scale 1) = %d, want 128", got)
	}
}

func TestSequencePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]int32, 4000)
	for i := range syms {
		syms[i] = int32(rng.Intn(50))
	}
	seq := Sequence(trace.New(syms), DefaultParams(512))
	if len(seq) != 50 {
		t.Errorf("Sequence covers %d blocks, want 50", len(seq))
	}
}

func TestEdgesSorted(t *testing.T) {
	g := NewGraph()
	g.AddWeight(1, 2, 5)
	g.AddWeight(3, 4, 50)
	g.AddWeight(1, 4, 5)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges = %v", edges)
	}
	if edges[0].Weight != 50 {
		t.Errorf("heaviest edge first: got %v", edges[0])
	}
	// Equal weights tie-break by node IDs.
	if edges[1].A != 1 || edges[1].B != 2 {
		t.Errorf("tie-break: got %+v", edges[1])
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int32, 200000)
	for i := range syms {
		phase := (i / 8000) % 6
		syms[i] = int32(phase*30 + rng.Intn(30))
	}
	tr := trace.New(syms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(tr, 128)
	}
}
