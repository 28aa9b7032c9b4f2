package affinity

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/trace"
)

// TestMergeScratchEpochWrap forces the merge scratch's int32 epoch
// through its wrap-around re-zeroing on a state whose scratch still
// holds the stamps of an earlier shard: the shard's candidate lists
// must equal a fresh state's, so no stale stamp aliases a new epoch.
func TestMergeScratchEpochWrap(t *testing.T) {
	tt := zeroAllocTrace().Trimmed()
	const wmax = 8
	run := func(st *shardState) [][]cand {
		if err := shardPairHists(context.Background(), st, tt.Syms, tt.MaxSym(), wmax, 0, len(tt.Syms)); err != nil {
			t.Fatal(err)
		}
		lists := make([][]cand, len(st.lists.heads))
		for s := range lists {
			lists[s] = st.lists.list(int32(s))
		}
		return lists
	}
	want := run(&shardState{})
	st := &shardState{}
	run(st)
	st.epoch = 1<<31 - 2 // the shard's first occurrences cross the wrap
	if got := run(st); !reflect.DeepEqual(got, want) {
		t.Fatal("candidate lists after the epoch wrap differ from a fresh state's")
	}
	if st.epoch <= 0 {
		t.Fatalf("epoch = %d, want positive after wrap", st.epoch)
	}
}

// TestShardBoundaryShortTraces drives the full sharded analysis on traces
// around and below the minimum shard span (minShardSpan*wmax), where
// warm-up spans clamp at position 0 and len(syms): the parallel result
// must stay byte-identical to serial for every worker count.
func TestShardBoundaryShortTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	wmax := 3
	minSpan := minShardSpan * wmax
	lengths := []int{
		0, 1, 2, // degenerate
		minSpan - 1, minSpan, minSpan + 1, // exactly at the chunking floor
		2*minSpan - 1, 2 * minSpan, // first lengths that can split
		5*minSpan + 3,
	}
	for _, n := range lengths {
		syms := make([]int32, n)
		for i := range syms {
			syms[i] = int32(rng.Intn(5))
		}
		tr := trace.New(syms)
		serial := BuildHierarchy(tr, Options{WMax: wmax, Workers: 1})
		for _, workers := range []int{2, 4, 16} {
			par := BuildHierarchy(tr, Options{WMax: wmax, Workers: workers})
			if !reflect.DeepEqual(par.Levels, serial.Levels) {
				t.Fatalf("n=%d workers=%d: hierarchy differs from serial", n, workers)
			}
		}
	}
}

// TestShardBoundaryWarmupSpansWholeTrace picks wmax larger than the
// alphabet so every shard's warm-up wants more distinct symbols than
// exist: the warm-up spans must clamp to 0 and to len(syms), and the
// sharded result must still match serial and the naive oracle.
func TestShardBoundaryWarmupSpansWholeTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	syms := make([]int32, 200)
	for i := range syms {
		syms[i] = int32(rng.Intn(3)) // alphabet 3, wmax 8 below
	}
	tr := trace.New(syms)
	opt := Options{WMax: 8, Workers: 1}
	serial := BuildHierarchy(tr, opt)
	naive := BuildHierarchyNaive(tr, opt)
	for w := 1; w <= opt.WMax; w++ {
		if !reflect.DeepEqual(serial.Partition(w).Groups, naive.Partition(w).Groups) {
			t.Fatalf("w=%d: serial differs from naive oracle", w)
		}
	}
	for _, workers := range []int{2, 7} {
		par := BuildHierarchy(tr, Options{WMax: 8, Workers: workers})
		if !reflect.DeepEqual(par.Levels, serial.Levels) {
			t.Fatalf("workers=%d: hierarchy differs from serial", workers)
		}
	}
}

// TestShardBoundarySingleSymbol covers the single-distinct-symbol trace
// long enough to shard: there are no pairs, so the hierarchy is one
// trivial group at every level, for any worker count.
func TestShardBoundarySingleSymbol(t *testing.T) {
	syms := make([]int32, 100)
	for i := range syms {
		syms[i] = 9
	}
	tr := trace.New(syms)
	for _, workers := range []int{1, 2, 8} {
		h := BuildHierarchy(tr, Options{WMax: 2, Workers: workers})
		if got := h.Sequence(); len(got) != 1 || got[0] != 9 {
			t.Fatalf("workers=%d: sequence = %v, want [9]", workers, got)
		}
	}
}
