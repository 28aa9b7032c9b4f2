package trg

import (
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/interp"
	"codelayout/internal/progen"
)

// bbGraph returns the DefaultParams(64) TRG of the named program's
// training-input basic-block trace: the graph a bb-trg job reduces, with
// 256 slots. It profiles through progen and interp directly, because the
// core package that does so for jobs imports this one.
func bbGraph(tb testing.TB, name string) *Graph {
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
	if !res.Completed {
		tb.Fatalf("%s: profile hit the step cap", name)
	}
	return BuildWorkers(res.Blocks, DefaultParams(64).WindowBlocks(), 0)
}

// tiedGraph draws a random graph whose weights take only a few values,
// so the pair-key tie-break decides most of the edge order. Symbols are
// sparse and registered in random order, so node order, symbol order and
// dense indices all differ; some nodes stay isolated.
func tiedGraph(rng *rand.Rand, nodes, edges, weights int) *Graph {
	syms := rng.Perm(4 * nodes)[:nodes]
	g := NewGraph()
	for _, s := range syms {
		g.AddNode(int32(s))
	}
	linked := syms[:max(2, nodes*4/5)]
	for i := 0; i < edges; i++ {
		a, b := linked[rng.Intn(len(linked))], linked[rng.Intn(len(linked))]
		if a != b && g.Weight(int32(a), int32(b)) == 0 {
			g.AddWeight(int32(a), int32(b), int64(1+rng.Intn(weights)))
		}
	}
	return g
}

// TestReduceMatchesReference holds Reduce to the maps-and-container/heap
// reduction it replaced, sequence for sequence.
func TestReduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	graphs := []*Graph{NewGraph(), tiedGraph(rng, 5, 0, 1)} // empty, edgeless
	for trial := 0; trial < 40; trial++ {
		nodes := 2 + rng.Intn(300)
		graphs = append(graphs, tiedGraph(rng, nodes, rng.Intn(nodes*nodes/2+1), 1+rng.Intn(4)))
	}
	for i, g := range graphs {
		for _, k := range []int{1, 2, 16, 256} {
			if got, want := Reduce(g, k), referenceReduce(g, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d (%d nodes, %d edges) k=%d:\n got %v\nwant %v",
					i, len(g.Nodes()), g.NumEdges(), k, got, want)
			}
		}
	}
	for _, name := range []string{"429.mcf", "458.sjeng"} {
		g := bbGraph(t, name)
		k := DefaultParams(64).Slots()
		if got, want := Reduce(g, k), referenceReduce(g, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d nodes, %d edges) k=%d: sequences differ", name, len(g.Nodes()), g.NumEdges(), k)
		}
	}
}

// BenchmarkReduce reduces 458.sjeng's basic-block TRG (about 1,060
// nodes and 240k edges) into 256 slots, the reduction of a bb-trg job.
func BenchmarkReduce(b *testing.B) {
	g := bbGraph(b, "458.sjeng")
	k := DefaultParams(64).Slots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduceSink = Reduce(g, k)
	}
}

var reduceSink []int32
