package schedule

import (
	"context"
	"encoding/binary"
	"math"
	"testing"
)

// exhaustiveMin is the least Cost over every partition of the matrix's
// programs into at most topo.Domains groups of at most
// topo.SlotsPerDomain, enumerated with no cost pruning: program i joins
// a group already opened or opens the next one, so each partition is
// visited once whatever the domain labels. It shares no search code
// with Solve or BruteForce.
func exhaustiveMin(cost [][]float64, topo Topology) float64 {
	n := len(cost)
	assign := make([]int, n)
	size := make([]int, topo.Domains)
	best := math.Inf(1)
	var walk func(i, opened int)
	walk = func(i, opened int) {
		if i == n {
			domains := make([][]int, topo.Domains)
			for p, d := range assign {
				domains[d] = append(domains[d], p)
			}
			best = min(best, Cost(cost, domains))
			return
		}
		for d := 0; d <= opened && d < topo.Domains; d++ {
			if size[d] == topo.SlotsPerDomain {
				continue
			}
			assign[i] = d
			size[d]++
			if d == opened {
				walk(i+1, opened+1)
			} else {
				walk(i+1, opened)
			}
			size[d]--
		}
	}
	walk(0, 0)
	return best
}

// near reports whether two placement costs agree up to the rounding of
// summing the same pair costs in another order.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// FuzzScheduleSolve runs Solve on accepted topologies: up to 7 programs
// on at most 8 domains of at most 8 slots, with symmetric, finite,
// non-negative pair costs read two bytes each from data (eighths, so
// ties and zeros are common). The placement must be a partition within
// capacity whose Cost is schedule.Cost's; an exact placement must cost
// what an unpruned enumeration finds least; and the worst case, when
// known, must cost no less than the placement.
//
//	go test ./internal/schedule -run '^$' -fuzz FuzzScheduleSolve -fuzztime 60s
func FuzzScheduleSolve(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(2), []byte{0, 0, 5, 0, 5, 0, 5, 0, 5, 0, 0, 0})
	f.Add(uint8(7), uint8(8), uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), uint8(4), uint8(2), []byte{255, 255, 0, 1, 9, 9, 9, 9, 0, 0, 17, 3})
	f.Add(uint8(6), uint8(2), uint8(3), []byte{})
	f.Add(uint8(5), uint8(1), uint8(5), []byte{10, 0, 20, 0, 30, 0, 40, 0})
	f.Add(uint8(0), uint8(1), uint8(1), []byte(nil))
	f.Fuzz(func(t *testing.T, nb, db, sb uint8, data []byte) {
		n := int(nb % 8)
		topo := Topology{Domains: 1 + int(db%8), SlotsPerDomain: 1 + int(sb%8)}
		if topo.Validate(n) != nil {
			return // over capacity
		}
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var v float64
				if len(data) >= 2 {
					v = float64(binary.LittleEndian.Uint16(data)) / 8
					data = data[2:]
				}
				cost[i][j], cost[j][i] = v, v
			}
		}

		p, err := Solve(context.Background(), cost, topo)
		if err != nil {
			t.Fatalf("Solve(n=%d, %+v): %v", n, topo, err)
		}
		assertValidPlacement(t, p, n, topo)
		if c := Cost(cost, p.Domains); p.Cost != c {
			t.Fatalf("placement cost %v, schedule.Cost says %v", p.Cost, c)
		}
		if p.Exact {
			if want := exhaustiveMin(cost, topo); !near(p.Cost, want) {
				t.Fatalf("n=%d %+v: exact placement %v costs %v, enumeration finds %v",
					n, topo, p.Domains, p.Cost, want)
			}
		}
		if w, ok := Worst(cost, topo); ok && w.Cost < p.Cost && !near(w.Cost, p.Cost) {
			t.Fatalf("n=%d %+v: worst case %v costs %v, below the placement's %v",
				n, topo, w.Domains, w.Cost, p.Cost)
		}
	})
}
