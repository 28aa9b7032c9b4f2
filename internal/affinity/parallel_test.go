package affinity

import (
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/trace"
)

// phasedTrace draws a trace with program-like phase locality: the symbol
// alphabet shifts every phaseLen occurrences, with occasional references
// back into the previous phase.
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

// TestBuildHierarchyWorkersDeterministic is the ISSUE's determinism
// guarantee for the affinity analysis: the hierarchy built with sharded
// concurrent stack passes must be byte-identical to the serial one, on
// seeded random traces of several shapes.
func TestBuildHierarchyWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(20140814))
	traces := []*trace.Trace{
		phasedTrace(rng, 4000, 500, 12),
		phasedTrace(rng, 997, 100, 5), // prime length: uneven shards
		trace.New(func() []int32 { // uniform random, small alphabet
			s := make([]int32, 2000)
			for i := range s {
				s[i] = int32(rng.Intn(9))
			}
			return s
		}()),
		fig1Trace(),
		trace.New([]int32{3}),
		trace.New(nil),
	}
	for ti, tr := range traces {
		for _, wmax := range []int{2, 5, DefaultWMax} {
			serial := BuildHierarchy(tr, Options{WMax: wmax, Workers: 1})
			for _, workers := range []int{2, 3, 8} {
				par := BuildHierarchy(tr, Options{WMax: wmax, Workers: workers})
				if !reflect.DeepEqual(par.Levels, serial.Levels) {
					t.Fatalf("trace %d wmax=%d: workers=%d hierarchy differs from serial", ti, wmax, workers)
				}
				if !reflect.DeepEqual(par.Sequence(), serial.Sequence()) {
					t.Fatalf("trace %d wmax=%d: workers=%d sequence differs from serial", ti, wmax, workers)
				}
			}
		}
	}
}

// TestParallelMatchesNaive closes the loop: the concurrent analysis must
// also agree with the quadratic from-the-definitions oracle.
func TestParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.Intn(150)
		alpha := 3 + rng.Intn(9)
		syms := make([]int32, n)
		for i := range syms {
			syms[i] = int32(rng.Intn(alpha))
		}
		tr := trace.New(syms)
		opt := Options{WMax: 2 + rng.Intn(8), Workers: 8}
		par := BuildHierarchy(tr, opt)
		naive := BuildHierarchyNaive(tr, opt)
		for w := 1; w <= opt.WMax; w++ {
			if !reflect.DeepEqual(par.Partition(w).Groups, naive.Partition(w).Groups) {
				t.Fatalf("trial %d w=%d: parallel %v != naive %v (trace %v)",
					trial, w, par.Partition(w).Groups, naive.Partition(w).Groups, syms)
			}
		}
	}
}
