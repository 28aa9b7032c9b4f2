// Package schedule turns the paper's pairwise interference numbers into
// placement decisions: given N programs (each with a cached layout) and
// a machine topology of cache domains — groups of cores that share an
// instruction cache, e.g. SMT hyper-thread pairs — it assigns programs
// to domains so that the total Eq-1 predicted co-run miss count is
// minimized. Programs placed in the same domain contend; programs in
// different domains run free of (modeled) interference.
//
// The input is a symmetric pair-cost matrix: Cost[i][j] is the total
// predicted extra misses when i and j share a cache (the sum of both
// directions of the paper's Eq 1 composition, computed by the server's
// co-run pair pipeline). The objective is additive over co-resident
// pairs, so the cost of a placement is the sum of Cost[i][j] over every
// unordered pair {i, j} sharing a domain.
//
// Solve is deterministic and exact on small fleets: it enumerates
// canonical assignments under a node budget, falling back to a greedy
// seeding plus swap/move local search when the instance is too large to
// enumerate. Both paths are context-cancellable.
package schedule

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Topology describes the shared-cache shape of the machine: Domains
// cache domains, each with SlotsPerDomain cores sharing one cache.
// An SMT machine with 8 two-way hyper-threaded cores is
// {Domains: 8, SlotsPerDomain: 2}.
type Topology struct {
	Domains        int `json:"domains"`
	SlotsPerDomain int `json:"slotsPerDomain"`
}

// MaxTopologyDim bounds both Domains and SlotsPerDomain. The solver
// keeps state per domain and scans every domain at each search node, so
// an unbounded count could exhaust memory or stall a solve; under the
// bound, Capacity cannot overflow. Real shared-cache machines have far
// fewer domains and slots.
const MaxTopologyDim = 1024

// Capacity is the number of programs the topology can host.
func (t Topology) Capacity() int { return t.Domains * t.SlotsPerDomain }

// Validate checks the topology is within MaxTopologyDim on both axes
// and can host n programs.
func (t Topology) Validate(n int) error {
	if t.Domains <= 0 || t.SlotsPerDomain <= 0 {
		return fmt.Errorf("schedule: non-positive topology %+v", t)
	}
	if t.Domains > MaxTopologyDim || t.SlotsPerDomain > MaxTopologyDim {
		return fmt.Errorf("schedule: topology %+v exceeds %d domains or %d slots per domain",
			t, MaxTopologyDim, MaxTopologyDim)
	}
	if n > t.Capacity() {
		return fmt.Errorf("schedule: %d programs exceed topology capacity %d (%d domains x %d slots)",
			n, t.Capacity(), t.Domains, t.SlotsPerDomain)
	}
	return nil
}

// Placement is a solved assignment.
type Placement struct {
	// Domains[d] lists the program indices placed in domain d, in
	// ascending order. Domains may be empty when capacity exceeds N.
	Domains [][]int `json:"domains"`
	// Cost is the total pair cost of the placement.
	Cost float64 `json:"cost"`
	// Exact reports whether the placement came from exhaustive
	// enumeration (guaranteed optimal) rather than the heuristic.
	Exact bool `json:"exact"`
}

// Cost sums the pair costs of every co-resident unordered pair.
func Cost(cost [][]float64, domains [][]int) float64 {
	var total float64
	for _, members := range domains {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				total += cost[members[i]][members[j]]
			}
		}
	}
	return total
}

// ValidateMatrix checks that cost is square, symmetric, zero-diagonal,
// and finite and non-negative — the contract the solver assumes: its
// branch-and-bound prune holds only when no pair cost is negative.
func ValidateMatrix(cost [][]float64) error {
	n := len(cost)
	for i, row := range cost {
		if len(row) != n {
			return fmt.Errorf("schedule: row %d has %d columns, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return fmt.Errorf("schedule: non-zero diagonal at %d: %v", i, row[i])
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return fmt.Errorf("schedule: NaN cost at [%d][%d]", i, j)
			}
			if v < 0 || math.IsInf(v, 0) {
				return fmt.Errorf("schedule: cost [%d][%d]=%v is not finite and non-negative", i, j, v)
			}
			if v != cost[j][i] {
				return fmt.Errorf("schedule: asymmetric cost [%d][%d]=%v vs [%d][%d]=%v",
					i, j, v, j, i, cost[j][i])
			}
		}
	}
	return nil
}

// ExactNodeBudget bounds the enumeration tree Solve explores before
// falling back to the heuristic. Pairing 12 programs onto 6 two-slot
// domains explores 10395 leaves; the budget comfortably covers fleets
// of that order while keeping worst-case latency bounded.
const ExactNodeBudget = 1 << 18

// Solve places the n programs of the cost matrix onto the topology,
// minimizing total co-resident pair cost. Small instances are solved
// exactly (Placement.Exact true); larger ones get a deterministic
// greedy seeding refined by swap/move local search. The matrix must be
// symmetric with a zero diagonal and finite, non-negative costs (see
// ValidateMatrix).
func Solve(ctx context.Context, cost [][]float64, topo Topology) (Placement, error) {
	n := len(cost)
	if err := topo.Validate(n); err != nil {
		return Placement{}, err
	}
	if err := ValidateMatrix(cost); err != nil {
		return Placement{}, err
	}
	s := newSolver(cost, topo)
	if p, ok, err := s.exact(ctx); err != nil {
		return Placement{}, err
	} else if ok {
		return p, nil
	}
	return s.heuristic(ctx)
}

// BruteForce exhaustively enumerates every placement and returns the
// cheapest — the oracle the tests hold Solve against. It ignores the
// node budget and must only be called on small instances.
func BruteForce(cost [][]float64, topo Topology) Placement {
	s := newSolver(cost, topo)
	p, ok, err := s.enumerate(context.Background(), math.MaxInt64, false)
	if err != nil || !ok {
		panic("schedule: BruteForce did not terminate") // unreachable: no budget, no ctx
	}
	return p
}

// Worst exhaustively finds the most expensive placement — the
// anti-oracle the smoke tests use to assert the solver beats the
// worst-case pairing. ok is false when the instance exceeds the
// enumeration budget.
func Worst(cost [][]float64, topo Topology) (Placement, bool) {
	s := newSolver(cost, topo)
	s.maximize = true
	p, ok, err := s.enumerate(context.Background(), ExactNodeBudget, true)
	if err != nil {
		return Placement{}, false
	}
	return p, ok
}

// solver holds the flat working state shared by the exact and heuristic
// paths, so the hot loops run on pre-sized slices with no per-node
// allocation.
type solver struct {
	cost     [][]float64
	topo     Topology
	n        int
	assign   []int // assign[i] = domain of program i, -1 unplaced
	count    []int // count[d] = programs in domain d
	best     []int
	bestCost float64
	nodes    int64
	maximize bool
}

func newSolver(cost [][]float64, topo Topology) *solver {
	n := len(cost)
	s := &solver{
		cost:   cost,
		topo:   topo,
		n:      n,
		assign: make([]int, n),
		count:  make([]int, topo.Domains),
		best:   make([]int, n),
	}
	for i := range s.assign {
		s.assign[i] = -1
	}
	return s
}

// marginal is the cost of adding program i to domain d under the
// current assignment.
func (s *solver) marginal(i, d int) float64 {
	var m float64
	row := s.cost[i]
	for j := 0; j < s.n; j++ {
		if s.assign[j] == d {
			m += row[j]
		}
	}
	return m
}

// exact tries exhaustive enumeration under the node budget.
func (s *solver) exact(ctx context.Context) (Placement, bool, error) {
	return s.enumerate(ctx, ExactNodeBudget, true)
}

// enumerate walks every canonical assignment (programs placed in index
// order; a program may open at most the first empty domain, which
// breaks the symmetry between identical empty domains). ok is false
// when the budget ran out before the walk finished.
func (s *solver) enumerate(ctx context.Context, budget int64, respectBudget bool) (Placement, bool, error) {
	if s.maximize {
		s.bestCost = math.Inf(-1)
	} else {
		s.bestCost = math.Inf(1)
	}
	s.nodes = 0
	for i := range s.assign {
		s.assign[i] = -1
	}
	for d := range s.count {
		s.count[d] = 0
	}
	ok, err := s.place(ctx, 0, 0, budget, respectBudget)
	if err != nil || !ok {
		return Placement{}, ok, err
	}
	return s.placementOf(s.best, true), true, nil
}

func (s *solver) place(ctx context.Context, i int, sofar float64, budget int64, respectBudget bool) (bool, error) {
	s.nodes++
	if respectBudget && s.nodes > budget {
		return false, nil
	}
	if s.nodes&1023 == 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	if i == s.n {
		if (s.maximize && sofar > s.bestCost) || (!s.maximize && sofar < s.bestCost) {
			s.bestCost = sofar
			copy(s.best, s.assign)
		}
		return true, nil
	}
	// Branch-and-bound prune: pair costs are predicted miss counts and
	// therefore non-negative, so a partial sum already at or above the
	// best completed placement cannot improve (minimize only).
	if !s.maximize && sofar >= s.bestCost {
		return true, nil
	}
	opened := false
	for d := 0; d < s.topo.Domains; d++ {
		if s.count[d] >= s.topo.SlotsPerDomain {
			continue
		}
		if s.count[d] == 0 {
			if opened {
				continue // identical to the first empty domain already tried
			}
			opened = true
		}
		m := s.marginal(i, d)
		s.assign[i] = d
		s.count[d]++
		ok, err := s.place(ctx, i+1, sofar+m, budget, respectBudget)
		s.assign[i] = -1
		s.count[d]--
		if err != nil || !ok {
			return ok, err
		}
	}
	return true, nil
}

// heuristic seeds a placement greedily — heaviest-interfering programs
// first, each into the feasible domain with the smallest marginal cost —
// then refines it with first-improvement swap/move local search until a
// full sweep finds nothing better.
func (s *solver) heuristic(ctx context.Context) (Placement, error) {
	for i := range s.assign {
		s.assign[i] = -1
	}
	for d := range s.count {
		s.count[d] = 0
	}
	// Greedy order: descending total interference, index as tie-break,
	// so the placement is deterministic for any cost matrix.
	order := make([]int, s.n)
	weight := make([]float64, s.n)
	for i := range order {
		order[i] = i
		for j := 0; j < s.n; j++ {
			weight[i] += s.cost[i][j]
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	var total float64
	for _, i := range order {
		bestD, bestM := -1, math.Inf(1)
		for d := 0; d < s.topo.Domains; d++ {
			if s.count[d] >= s.topo.SlotsPerDomain {
				continue
			}
			if m := s.marginal(i, d); m < bestM {
				bestD, bestM = d, m
			}
		}
		s.assign[i] = bestD
		s.count[bestD]++
		total += bestM
	}

	// Local search: swapping two programs between domains, or moving one
	// into a free slot, taking the first improving move of a
	// deterministic sweep. Each accepted move strictly lowers the cost,
	// and costs are bounded below, so the loop terminates; maxSweeps is
	// a safety bound against float-noise cycling.
	const eps = 1e-12
	maxSweeps := 4 * s.n
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return Placement{}, err
		}
		improved := false
		for i := 0; i < s.n && !improved; i++ {
			di := s.assign[i]
			// Move i into any domain with a free slot.
			ci := s.marginal(i, di) - s.cost[i][i]
			for d := 0; d < s.topo.Domains; d++ {
				if d == di || s.count[d] >= s.topo.SlotsPerDomain {
					continue
				}
				delta := s.marginal(i, d) - ci
				if delta < -eps {
					s.assign[i] = d
					s.count[di]--
					s.count[d]++
					total += delta
					improved = true
					break
				}
			}
			if improved {
				break
			}
			// Swap i with any program in a different domain.
			for j := i + 1; j < s.n; j++ {
				dj := s.assign[j]
				if dj == di {
					continue
				}
				// Cost change of exchanging i and j: each loses its ties
				// to its old domain and gains ties to the other's, with
				// the i-j edge itself unchanged (they still end up in
				// different domains).
				delta := s.marginal(i, dj) - s.cost[i][j] - ci +
					s.marginal(j, di) - s.cost[j][i] - (s.marginal(j, dj) - s.cost[j][j])
				if delta < -eps {
					s.assign[i], s.assign[j] = dj, di
					total += delta
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return s.placementOf(s.assign, false), nil
}

// placementOf converts a flat assignment into the wire Placement,
// recomputing the cost from scratch (the incremental totals carry float
// noise; the reported cost is the exact sum).
func (s *solver) placementOf(assign []int, exact bool) Placement {
	domains := make([][]int, s.topo.Domains)
	for d := range domains {
		domains[d] = []int{} // empty domains marshal as [], not null
	}
	for i := 0; i < s.n; i++ {
		d := assign[i]
		domains[d] = append(domains[d], i)
	}
	return Placement{Domains: domains, Cost: Cost(s.cost, domains), Exact: exact}
}
