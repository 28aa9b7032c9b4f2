package stackdist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// beforeOracle is Distinct.Before with a map per call: the largest
// p <= lo such that syms[p:lo] holds need distinct symbols, or 0.
func beforeOracle(syms []int32, lo, need int) int {
	seen := make(map[int32]struct{}, need)
	p := lo
	for p > 0 && len(seen) < need {
		p--
		seen[syms[p]] = struct{}{}
	}
	return p
}

// afterOracle is Distinct.After with a map per call: the smallest
// q >= hi such that syms[hi:q] holds need distinct symbols, or
// len(syms).
func afterOracle(syms []int32, hi, need int) int {
	seen := make(map[int32]struct{}, need)
	q := hi
	for q < len(syms) && len(seen) < need {
		seen[syms[q]] = struct{}{}
		q++
	}
	return q
}

// TestWindowMatchesLRUStack holds the top-k window to the linked-list
// LRU stack: after every access of random traces (repeats included),
// the window equals the stack's top k, and the count Access returns is
// the number of symbols AppendTopKUntil finds above the accessed one
// (-1 when it is not in the top k). At every 37th position it also
// rebuilds windows the way the kernels warm up, replaying from
// Distinct.Before forward and from Distinct.After backward, and
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
			stack := NewLRUStack(maxSym)
			var w Window
			w.Reset(k, maxSym)
			fwdTop[0] = []int32{}
			for i, s := range syms {
				between, found := stack.AppendTopKUntil(nil, k, s)
				stack.Access(s)
				want := -1
				if found {
					want = len(between)
				}
				if d := w.Access(s); d != want {
					t.Fatalf("%s: access %d returned %d, want %d", name, i, d, want)
				}
				fwdTop[i+1] = stack.AppendTopK([]int32{}, k)
				if !slices.Equal(w.Syms(), fwdTop[i+1]) {
					t.Fatalf("%s: after access %d window %v, stack top %v", name, i, w.Syms(), fwdTop[i+1])
				}
			}
			stack = NewLRUStack(maxSym)
			backTop[len(syms)] = []int32{}
			for i := len(syms) - 1; i >= 0; i-- {
				stack.Access(syms[i])
				backTop[i] = stack.AppendTopK([]int32{}, k)
			}

			var warm Distinct
			warm.Grow(maxSym)
			for pos := 0; pos <= len(syms); pos += 37 {
				w.Reset(k, maxSym)
				for i := warm.Before(syms, pos, k); i < pos; i++ {
					w.Access(syms[i])
				}
				if !slices.Equal(w.Syms(), fwdTop[pos]) {
					t.Fatalf("%s: window warmed before %d is %v, stack top %v", name, pos, w.Syms(), fwdTop[pos])
				}
				w.Reset(k, maxSym)
				for i := warm.After(syms, pos, k) - 1; i >= pos; i-- {
					w.Access(syms[i])
				}
				if !slices.Equal(w.Syms(), backTop[pos]) {
					t.Fatalf("%s: window warmed after %d is %v, backward stack top %v", name, pos, w.Syms(), backTop[pos])
				}
			}
		}
	}
}

// TestWarmScratchMatchesMapOracle checks the epoch-stamped span scans
// against the map-based oracles at every position of several trace
// shapes, including need values far beyond the alphabet.
func TestWarmScratchMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][]int32{
		{},           // empty trace
		{7},          // single occurrence
		{5, 5, 5, 5}, // single symbol repeated
		{0, 1, 2, 3, // strictly increasing: every warm-up hits distinct syms
			4, 5, 6, 7},
		func() []int32 { // random with repeats
			s := make([]int32, 61)
			for i := range s {
				s[i] = int32(rng.Intn(6))
			}
			return s
		}(),
	}
	var d Distinct
	for si, syms := range shapes {
		var maxSym int32 = -1
		for _, s := range syms {
			if s > maxSym {
				maxSym = s
			}
		}
		d.Grow(maxSym)
		for _, need := range []int{0, 1, 2, 5, len(syms) + 3} {
			for pos := 0; pos <= len(syms); pos++ {
				if got, want := d.Before(syms, pos, need), beforeOracle(syms, pos, need); got != want {
					t.Fatalf("shape %d: Before(%d, %d) = %d, oracle %d", si, pos, need, got, want)
				}
				if got, want := d.After(syms, pos, need), afterOracle(syms, pos, need); got != want {
					t.Fatalf("shape %d: After(%d, %d) = %d, oracle %d", si, pos, need, got, want)
				}
			}
		}
	}
}

// TestWarmScratchEpochIsolation verifies consecutive scans on one set
// don't leak "seen" marks into each other: a scan that touched symbol s
// must not make a later scan skip s.
func TestWarmScratchEpochIsolation(t *testing.T) {
	syms := []int32{4, 4, 4, 4, 4, 4}
	var d Distinct
	d.Grow(4)
	// First call marks symbol 4 in its epoch.
	if got := d.Before(syms, 6, 1); got != 5 {
		t.Fatalf("first Before = %d, want 5", got)
	}
	// A later call must count symbol 4 afresh, not see the stale mark and
	// walk to position 0.
	if got := d.Before(syms, 6, 1); got != 5 {
		t.Fatalf("second Before = %d, want 5 (stale epoch mark leaked)", got)
	}
	if got := d.After(syms, 0, 1); got != 1 {
		t.Fatalf("After after Before = %d, want 1", got)
	}
}

// TestWarmScratchEpochWrap forces the int32 epoch counter through its
// wrap-around re-zeroing and checks scans still match the oracle.
func TestWarmScratchEpochWrap(t *testing.T) {
	syms := []int32{0, 1, 2, 0, 1, 2}
	var d Distinct
	d.Grow(2)
	d.epoch = 1<<31 - 2 // next two clears cross the wrap
	for i := 0; i < 3; i++ {
		if got, want := d.Before(syms, 6, 3), beforeOracle(syms, 6, 3); got != want {
			t.Fatalf("clear %d: Before = %d, oracle %d", i, got, want)
		}
	}
	if d.epoch <= 0 {
		t.Fatalf("epoch = %d, want positive after wrap", d.epoch)
	}
}

// TestWarmupBounds exercises the span scans and their oracles directly
// on corner cases: empty prefixes/suffixes and traces with fewer
// distinct symbols than requested.
func TestWarmupBounds(t *testing.T) {
	syms := []int32{0, 1, 0, 1, 2, 3}
	var d Distinct
	d.Grow(3)
	scans := []struct {
		name          string
		before, after func(syms []int32, pos, need int) int
	}{
		{"Distinct", d.Before, d.After},
		{"oracle", beforeOracle, afterOracle},
	}
	for _, sc := range scans {
		if got := sc.before(syms, 0, 4); got != 0 {
			t.Errorf("%s: before at 0 = %d, want 0", sc.name, got)
		}
		if got := sc.before(syms, 6, 2); got != 4 {
			// [4,6) = {2,3}: two distinct.
			t.Errorf("%s: before(6, 2) = %d, want 4", sc.name, got)
		}
		if got := sc.before(syms, 4, 10); got != 0 {
			t.Errorf("%s: before with excess need = %d, want 0", sc.name, got)
		}
		if got := sc.after(syms, 6, 3); got != 6 {
			t.Errorf("%s: after at end = %d, want 6", sc.name, got)
		}
		if got := sc.after(syms, 0, 2); got != 2 {
			// [0,2) = {0,1}: two distinct.
			t.Errorf("%s: after(0, 2) = %d, want 2", sc.name, got)
		}
		if got := sc.after(syms, 2, 10); got != 6 {
			t.Errorf("%s: after with excess need = %d, want 6", sc.name, got)
		}
	}
}
