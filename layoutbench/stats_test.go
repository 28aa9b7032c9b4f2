package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileRuleKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {50, 80}, {99, 80}, {100, 90}, {200, 95}, {500, 98}, {1000, 99}, {2000, 99.5}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 50 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

// Each workload's fixed tail percentile must keep ten samples beyond it
// at the op count BENCHMARK.json's run length gives on a 2-core box.
func TestWorkloadTailPercentiles(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seconds := b.RunSeconds
	// Closed-loop ops/s measured on a 2-core box, its slower hours.
	expected := map[string]float64{"analysis": 2.2, "ingest": 20, "warm-mix": 10}
	for _, w := range workloads {
		n := int(expected[w.name] * seconds)
		if b := beyond(n, w.tailPct); b < minBeyond {
			t.Errorf("%s: p%v with %d samples leaves %d beyond", w.name, w.tailPct, n, b)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

// Values from Python: statistics.quantiles([...], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18}, 11.5, 14, 16.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms = %v", got)
	}
}
