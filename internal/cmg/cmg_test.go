package cmg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/interp"
	"codelayout/internal/progen"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
	"codelayout/internal/trg"
)

func TestOneShotInterleavingCarriesNoConflict(t *testing.T) {
	// A X A with X executed once: the TRG counts the interleaving, but
	// the worst-case conflict-miss bound is zero misses beyond X's cold
	// miss — the CMG ignores it.
	syms := []int32{0, 7, 0}
	tg := trg.Build(trace.New(syms), 0)
	cg := Build(trace.New(syms), 0)
	if tg.Weight(0, 7) != 1 {
		t.Errorf("TRG weight = %d, want 1", tg.Weight(0, 7))
	}
	if cg.Weight(0, 7) != 0 {
		t.Errorf("CMG weight = %d, want 0 (one-shot interleaving)", cg.Weight(0, 7))
	}
}

func TestDirectionChangeCounting(t *testing.T) {
	// A X A X: one completed alternation — 2 worst-case misses.
	g := Build(trace.New([]int32{0, 7, 0, 7}), 0)
	if w := g.Weight(0, 7); w != 2 {
		t.Errorf("Weight = %d, want 2", w)
	}
	// A X A X A: two completed alternations.
	g = Build(trace.New([]int32{0, 7, 0, 7, 0}), 0)
	if w := g.Weight(0, 7); w != 4 {
		t.Errorf("Weight = %d, want 4", w)
	}
	// 0 7 0 2 0 2 0: the (0,7) pair never alternates back; the (0,2)
	// pair completes two alternations.
	g = Build(trace.New([]int32{0, 7, 0, 2, 0, 2, 0}), 0)
	if w := g.Weight(0, 7); w != 0 {
		t.Errorf("one-sided weight = %d, want 0", w)
	}
	if w := g.Weight(0, 2); w != 4 {
		t.Errorf("alternating weight = %d, want 4", w)
	}
}

func TestWindowBound(t *testing.T) {
	// 0 and 3 alternate twice; the blocks in between ensure the window
	// bound matters.
	syms := []int32{0, 1, 3, 2, 0, 4, 3, 5, 0}
	unbounded := Build(trace.New(syms), 0)
	if unbounded.Weight(0, 3) == 0 {
		t.Error("unbounded CMG missed the alternation")
	}
	bounded := Build(trace.New(syms), 3)
	if bounded.Weight(0, 3) != 0 {
		t.Errorf("bounded CMG counted outside the window: %d", bounded.Weight(0, 3))
	}
}

func TestSequenceIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	syms := make([]int32, 4000)
	for i := range syms {
		syms[i] = int32(rng.Intn(40))
	}
	seq := Sequence(trace.New(syms), trg.DefaultParams(512))
	seen := make(map[int32]bool)
	for _, s := range seq {
		if seen[s] {
			t.Fatalf("duplicate %d", s)
		}
		seen[s] = true
	}
	if len(seq) != 40 {
		t.Errorf("sequence covers %d blocks, want 40", len(seq))
	}
}

func TestEmptyTrace(t *testing.T) {
	g := Build(trace.New(nil), 0)
	if g.NumEdges() != 0 || len(g.Nodes()) != 0 {
		t.Error("empty trace produced a non-empty graph")
	}
}

// referenceBuild is the construction as first written: one serial
// LRUStack walk, the interleaved blocks snapshotted with
// AppendTopKUntil, and Go maps for the lastDir stamps and the weights,
// with nodes in first-occurrence order. It is the oracle Build is held
// to.
func referenceBuild(syms []int32, windowBlocks int) ([]int32, map[int64]int64) {
	var maxSym int32
	for _, s := range syms {
		maxSym = max(maxSym, s)
	}
	limit := windowBlocks
	if limit <= 0 {
		limit = int(maxSym) + 1
	}
	var nodes []int32
	seen := map[int32]bool{}
	lastDir := map[int64]int32{}
	weights := map[int64]int64{}
	stack := stackdist.NewLRUStack(maxSym)
	for _, cur := range syms {
		if !seen[cur] {
			seen[cur] = true
			nodes = append(nodes, cur)
		}
		if between, found := stack.AppendTopKUntil(nil, limit, cur); found {
			for _, x := range between {
				key := pairKey(cur, x)
				if d, ok := lastDir[key]; ok && d != cur {
					weights[key] += 2
				}
				lastDir[key] = cur
			}
		}
		stack.Access(cur)
	}
	return nodes, weights
}

// suiteTraces returns 458.sjeng's training-input function and block
// traces, trimmed.
func suiteTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	spec, err := progen.SpecByName("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := progen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Options{Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{
		"458.sjeng func":  trace.FuncTrace(prog, res.Blocks).Trimmed(),
		"458.sjeng block": res.Blocks.Trimmed(),
	}
}

// TestBuildMatchesReference holds Build to the reference construction
// on random traces (alphabets 1 to 5,000) and on a suite program's
// function and block traces, at unbounded and bounded windows: the same
// node order and the same weight on every edge.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	traces := suiteTraces(t)
	for _, alpha := range []int{1, 3, 50, 5000} {
		syms := make([]int32, 4000)
		for i := range syms {
			syms[i] = int32(rng.Intn(alpha))
		}
		traces[fmt.Sprintf("random alphabet %d", alpha)] = trace.New(syms).Trimmed()
	}
	for name, tt := range traces {
		for _, window := range []int{0, 3, 128, 1024} {
			what := fmt.Sprintf("%s window=%d", name, window)
			nodes, weights := referenceBuild(tt.Syms, window)
			g := Build(tt, window)
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
	}
}
