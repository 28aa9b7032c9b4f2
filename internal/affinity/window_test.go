package affinity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"codelayout/internal/stackdist"
)

// TestWindowMatchesLRUStack holds the top-k window to the linked-list
// LRU stack: after every access of random traces (repeats included),
// the window equals the stack's top k. At every 37th position it also
// rebuilds windows the way the stack passes warm up, replaying from
// warmBeforeScratch forward and from warmAfterScratch backward, and
// requires the full forward and backward stacks' top k there.
func TestWindowMatchesLRUStack(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, alpha := range []int{1, 3, 50, 5000} {
		syms := make([]int32, 3000)
		for i := range syms {
			syms[i] = int32(rng.Intn(alpha))
		}
		maxSym := slices.Max(syms)
		for _, k := range []int{1, 2, 20, 300} {
			name := fmt.Sprintf("alphabet %d k=%d", alpha, k)
			// fwdTop[p] and backTop[p] are the top k of the forward stack
			// after syms[:p] and of the backward stack after syms[p:].
			fwdTop := make([][]int32, len(syms)+1)
			backTop := make([][]int32, len(syms)+1)
			stack := stackdist.NewLRUStack(maxSym)
			var w window
			w.reset(k)
			fwdTop[0] = []int32{}
			for i, s := range syms {
				stack.Access(s)
				w.access(s)
				fwdTop[i+1] = stack.AppendTopK([]int32{}, k)
				if !slices.Equal(w.syms, fwdTop[i+1]) {
					t.Fatalf("%s: after access %d window %v, stack top %v", name, i, w.syms, fwdTop[i+1])
				}
			}
			stack = stackdist.NewLRUStack(maxSym)
			backTop[len(syms)] = []int32{}
			for i := len(syms) - 1; i >= 0; i-- {
				stack.Access(syms[i])
				backTop[i] = stack.AppendTopK([]int32{}, k)
			}

			st := &shardState{}
			st.prepare(maxSym, k)
			for pos := 0; pos <= len(syms); pos += 37 {
				w.reset(k)
				for i := st.warmBeforeScratch(syms, pos, k); i < pos; i++ {
					w.access(syms[i])
				}
				if !slices.Equal(w.syms, fwdTop[pos]) {
					t.Fatalf("%s: window warmed before %d is %v, stack top %v", name, pos, w.syms, fwdTop[pos])
				}
				w.reset(k)
				for i := st.warmAfterScratch(syms, pos, k) - 1; i >= pos; i-- {
					w.access(syms[i])
				}
				if !slices.Equal(w.syms, backTop[pos]) {
					t.Fatalf("%s: window warmed after %d is %v, backward stack top %v", name, pos, w.syms, backTop[pos])
				}
			}
		}
	}
}
