package affinity

import (
	"context"
	"reflect"
	"testing"

	"codelayout/internal/interp"
	"codelayout/internal/progen"
	"codelayout/internal/trace"
)

// defaultPruneTopN mirrors core.DefaultPruneTopN, the paper's bound of
// 10,000 basic blocks; core imports this package, so it cannot be
// imported here.
const defaultPruneTopN = 10000

// suiteBBTrace returns the named program's training-input basic-block
// trace pruned to its keep most frequent blocks, as core prepares a
// bb-affinity job; keep <= 0 keeps 3/4 of the blocks the trace executes.
// (3/4 of the program's static blocks, the prune of layoutbench's
// buffered jobs, keeps every executed block of these programs.)
func suiteBBTrace(t *testing.T, name string, keep int) *trace.Trace {
	t.Helper()
	spec, err := progen.SpecByName(name)
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
	tt := res.Blocks.Trimmed()
	if keep <= 0 {
		keep = tt.NumDistinct() * 3 / 4
	}
	pruned, _ := tt.PruneTopN(keep)
	return pruned.Trimmed()
}

// TestIndexedMergeMatchesGreedyOnSuite runs the partner-indexed level
// merge and Algorithm 1's greedy merge over one minimal-window table from
// real basic-block profiles, at the default prune and at 3/4 of the
// executed blocks, and requires the same partition at every w.
func TestIndexedMergeMatchesGreedyOnSuite(t *testing.T) {
	for _, name := range []string{"403.gcc", "483.xalancbmk"} {
		for _, keep := range []int{defaultPruneTopN, 0} {
			tt := suiteBBTrace(t, name, keep)
			minW, err := pairMinWindowsStack(context.Background(), tt, DefaultWMax, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			indexed := newHierarchyShell(tt, DefaultWMax)
			buildLevels(indexed, DefaultWMax, minW)
			greedy := newHierarchyShell(tt, DefaultWMax)
			buildLevelsNaive(greedy, DefaultWMax, minW)
			for w := 1; w <= DefaultWMax; w++ {
				if got, want := indexed.Partition(w).Groups, greedy.Partition(w).Groups; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s keep=%d w=%d: indexed merge has %d groups, greedy %d",
						name, keep, w, len(got), len(want))
				}
			}
			t.Logf("%s keep=%d: %d symbols, %d affine pairs, %d groups at w=%d",
				name, keep, tt.NumDistinct(), minW.Len(), len(indexed.Partition(DefaultWMax).Groups), DefaultWMax)
		}
	}
}
