package schedule

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randMatrix builds a symmetric zero-diagonal cost matrix with
// non-negative entries — the shape of a real interference matrix.
func randMatrix(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64() * 1000
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

// TestSolveMatchesBruteForceOracle: for every small fleet shape, the
// solver's placement cost must equal the exhaustive optimum — the
// acceptance criterion of the scheduling service.
func TestSolveMatchesBruteForceOracle(t *testing.T) {
	topos := []Topology{
		{Domains: 1, SlotsPerDomain: 2},
		{Domains: 2, SlotsPerDomain: 2},
		{Domains: 3, SlotsPerDomain: 2},
		{Domains: 2, SlotsPerDomain: 3},
		{Domains: 4, SlotsPerDomain: 2},
		{Domains: 6, SlotsPerDomain: 1},
		{Domains: 2, SlotsPerDomain: 4},
	}
	rng := rand.New(rand.NewSource(42))
	for _, topo := range topos {
		for n := 0; n <= 6 && n <= topo.Capacity(); n++ {
			for trial := 0; trial < 20; trial++ {
				m := randMatrix(rng, n)
				got, err := Solve(context.Background(), m, topo)
				if err != nil {
					t.Fatalf("Solve(n=%d, %+v): %v", n, topo, err)
				}
				want := BruteForce(m, topo)
				if math.Abs(got.Cost-want.Cost) > 1e-9 {
					t.Fatalf("n=%d topo=%+v trial=%d: Solve cost %v != oracle %v\nplacement %v vs %v",
						n, topo, trial, got.Cost, want.Cost, got.Domains, want.Domains)
				}
				if !got.Exact {
					t.Fatalf("n=%d topo=%+v: small instance not solved exactly", n, topo)
				}
				assertValidPlacement(t, got, n, topo)
				if c := Cost(m, got.Domains); math.Abs(c-got.Cost) > 1e-9 {
					t.Fatalf("reported cost %v != recomputed %v", got.Cost, c)
				}
			}
		}
	}
}

func assertValidPlacement(t *testing.T, p Placement, n int, topo Topology) {
	t.Helper()
	if len(p.Domains) != topo.Domains {
		t.Fatalf("placement has %d domains, want %d", len(p.Domains), topo.Domains)
	}
	seen := make(map[int]bool)
	for d, members := range p.Domains {
		if len(members) > topo.SlotsPerDomain {
			t.Fatalf("domain %d over capacity: %v", d, members)
		}
		for _, i := range members {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("bad or duplicate program %d in %v", i, p.Domains)
			}
			seen[i] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("placement covers %d of %d programs: %v", len(seen), n, p.Domains)
	}
}

// TestSolveDeterministic: identical inputs give identical placements,
// byte for byte — the serving layer memoizes on that.
func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 12)
	topo := Topology{Domains: 6, SlotsPerDomain: 2}
	first, err := Solve(context.Background(), m, topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Solve(context.Background(), m, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, first, again)
		}
	}
}

// TestHeuristicNeverWorseThanWorst: on instances past the enumeration
// budget, the heuristic must still produce a valid placement, and on
// budget-sized ones it must beat (or tie) the exhaustive worst case.
func TestHeuristicBeatsWorstCase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topo := Topology{Domains: 5, SlotsPerDomain: 2}
	m := randMatrix(rng, 10)
	p, err := Solve(context.Background(), m, topo)
	if err != nil {
		t.Fatal(err)
	}
	worst, ok := Worst(m, topo)
	if !ok {
		t.Fatal("Worst should enumerate a 10-program fleet")
	}
	if p.Cost > worst.Cost {
		t.Fatalf("solver cost %v exceeds the worst case %v", p.Cost, worst.Cost)
	}
	best := BruteForce(m, topo)
	if math.Abs(p.Cost-best.Cost) > 1e-9 {
		t.Fatalf("10-program fleet should still be exact: %v vs %v", p.Cost, best.Cost)
	}
	if worst.Cost < best.Cost {
		t.Fatalf("worst %v below best %v", worst.Cost, best.Cost)
	}
}

// TestLargeFleetFallsBackToHeuristic: a fleet past the node budget uses
// the heuristic path, stays valid, deterministic, and no worse than the
// trivial in-order placement.
func TestLargeFleetFallsBackToHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 32
	m := randMatrix(rng, n)
	topo := Topology{Domains: 16, SlotsPerDomain: 2}
	p, err := Solve(context.Background(), m, topo)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exact {
		t.Fatal("32-program fleet should exceed the enumeration budget")
	}
	assertValidPlacement(t, p, n, topo)
	// In-order pairing (0,1), (2,3), ... is the placement a scheduler
	// that ignores interference would produce.
	naive := make([][]int, topo.Domains)
	for i := 0; i < n; i++ {
		naive[i/2] = append(naive[i/2], i)
	}
	if p.Cost > Cost(m, naive) {
		t.Fatalf("heuristic cost %v worse than naive in-order pairing %v", p.Cost, Cost(m, naive))
	}
	again, err := Solve(context.Background(), m, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, again) {
		t.Fatal("heuristic placement not deterministic")
	}
}

func TestSolveCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 40)
	topo := Topology{Domains: 20, SlotsPerDomain: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, m, topo); err == nil {
		t.Fatal("canceled context should surface an error")
	}
}

func TestValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Solve(ctx, randMatrix(rand.New(rand.NewSource(1)), 4), Topology{Domains: 1, SlotsPerDomain: 2}); err == nil {
		t.Fatal("over-capacity fleet should be rejected")
	}
	if _, err := Solve(ctx, randMatrix(rand.New(rand.NewSource(1)), 2), Topology{}); err == nil {
		t.Fatal("zero topology should be rejected")
	}
	asym := [][]float64{{0, 1}, {2, 0}}
	if _, err := Solve(ctx, asym, Topology{Domains: 1, SlotsPerDomain: 2}); err == nil {
		t.Fatal("asymmetric matrix should be rejected")
	}
	diag := [][]float64{{1, 0}, {0, 0}}
	if _, err := Solve(ctx, diag, Topology{Domains: 1, SlotsPerDomain: 2}); err == nil {
		t.Fatal("non-zero diagonal should be rejected")
	}
	nan := [][]float64{{0, math.NaN()}, {math.NaN(), 0}}
	if _, err := Solve(ctx, nan, Topology{Domains: 1, SlotsPerDomain: 2}); err == nil {
		t.Fatal("NaN matrix should be rejected")
	}
	ragged := [][]float64{{0, 1}, {1}}
	if _, err := Solve(ctx, ragged, Topology{Domains: 1, SlotsPerDomain: 2}); err == nil {
		t.Fatal("ragged matrix should be rejected")
	}
	for _, v := range []float64{-1, -100, math.Inf(1), math.Inf(-1), -math.SmallestNonzeroFloat64} {
		bad := [][]float64{{0, v}, {v, 0}}
		if _, err := Solve(ctx, bad, Topology{Domains: 1, SlotsPerDomain: 2}); err == nil {
			t.Fatalf("cost %v should be rejected", v)
		}
	}
	// A negative cost would break the branch-and-bound prune: on 2x2 with
	// cost[1][3] = -100 and every other pair 0 or 5, {0,2},{1,3} costs -95
	// but the pruned search stops at {0,1},{2,3}.
	neg := [][]float64{
		{0, 0, 5, 5},
		{0, 0, 5, -100},
		{5, 5, 0, 0},
		{5, -100, 0, 0},
	}
	if err := ValidateMatrix(neg); err == nil {
		t.Fatal("matrix with a negative cost should be rejected")
	}
	zero := [][]float64{{0, 0, math.Copysign(0, -1)}, {0, 0, 0}, {math.Copysign(0, -1), 0, 0}}
	if err := ValidateMatrix(zero); err != nil {
		t.Fatalf("zero costs (negative zero included) should be accepted: %v", err)
	}
	for _, tc := range []struct {
		topo Topology
		ok   bool
	}{
		{Topology{Domains: MaxTopologyDim, SlotsPerDomain: MaxTopologyDim}, true},
		{Topology{Domains: MaxTopologyDim + 1, SlotsPerDomain: 1}, false},
		{Topology{Domains: 1, SlotsPerDomain: MaxTopologyDim + 1}, false},
		{Topology{Domains: 1 << 62, SlotsPerDomain: 1}, false},
		{Topology{Domains: 1 << 62, SlotsPerDomain: 4}, false}, // capacity overflows to 0
		{Topology{Domains: 3, SlotsPerDomain: 1 << 62}, false}, // capacity overflows to a negative
	} {
		if err := tc.topo.Validate(2); (err == nil) != tc.ok {
			t.Fatalf("Validate(%+v) = %v, want ok=%v", tc.topo, err, tc.ok)
		}
	}
	// A topology at the bound solves.
	p, err := Solve(ctx, randMatrix(rand.New(rand.NewSource(1)), 4), Topology{Domains: MaxTopologyDim, SlotsPerDomain: MaxTopologyDim})
	if err != nil || p.Cost != 0 {
		t.Fatalf("Solve at the topology bound = %+v, %v; want 4 isolated programs", p, err)
	}
}

// TestSpreadWhenRoomAllows: with more domains than programs, zero-cost
// isolation is always optimal — everyone gets their own cache.
func TestSpreadWhenRoomAllows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randMatrix(rng, 4)
	p, err := Solve(context.Background(), m, Topology{Domains: 4, SlotsPerDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 0 {
		t.Fatalf("4 programs over 4 domains should cost 0, got %v (%v)", p.Cost, p.Domains)
	}
}

// BenchmarkScheduleSolve exercises the heuristic path on a 32-program
// fleet — the CI gate holds its allocations to a small constant so the
// solver cannot regress into per-pair allocation.
func BenchmarkScheduleSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	m := randMatrix(rng, 32)
	topo := Topology{Domains: 16, SlotsPerDomain: 2}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ctx, m, topo); err != nil {
			b.Fatal(err)
		}
	}
}
