package stackdist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLRUStackBasic(t *testing.T) {
	s := NewLRUStack(10)
	if got := s.AppendTopK(nil, 10); len(got) != 0 {
		t.Fatalf("new stack holds %v", got)
	}
	if !s.Access(3) {
		t.Error("first access to 3 not reported as first")
	}
	if s.Access(3) {
		t.Error("second access to 3 reported as first")
	}
	s.Access(5)
	s.Access(7)
	if got := s.AppendTopK(nil, 10); !reflect.DeepEqual(got, []int32{7, 5, 3}) {
		t.Errorf("stack = %v, want [7 5 3]", got)
	}
	s.Access(3)
	if got := s.AppendTopK(nil, 10); !reflect.DeepEqual(got, []int32{3, 7, 5}) {
		t.Errorf("after reaccess stack = %v, want [3 7 5]", got)
	}
}

func TestLRUStackTopK(t *testing.T) {
	s := NewLRUStack(10)
	for _, sym := range []int32{1, 2, 3, 4} {
		s.Access(sym)
	}
	if got := s.AppendTopK(nil, 3); !reflect.DeepEqual(got, []int32{4, 3, 2}) {
		t.Errorf("AppendTopK(3) = %v, want [4 3 2]", got)
	}
	// k larger than stack appends everything, after what dst holds.
	if got := s.AppendTopK([]int32{9}, 100); !reflect.DeepEqual(got, []int32{9, 4, 3, 2, 1}) {
		t.Errorf("AppendTopK(100) = %v", got)
	}
	between, found := s.AppendTopKUntil(nil, 10, 2)
	if !found || !reflect.DeepEqual(between, []int32{4, 3}) {
		t.Errorf("AppendTopKUntil(stop 2) = %v, %v; want [4 3], true", between, found)
	}
	if between, found = s.AppendTopKUntil(nil, 2, 2); found || !reflect.DeepEqual(between, []int32{4, 3}) {
		t.Errorf("AppendTopKUntil(k 2, stop 2) = %v, %v; want [4 3], false", between, found)
	}
}

// lruStackOracle mirrors LRUStack with a plain slice for verification.
type lruStackOracle struct{ s []int32 }

func (o *lruStackOracle) access(sym int32) bool {
	for i, v := range o.s {
		if v == sym {
			copy(o.s[1:], o.s[:i])
			o.s[0] = sym
			return false
		}
	}
	o.s = append([]int32{sym}, o.s...)
	return true
}

func TestLRUStackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewLRUStack(31)
	o := &lruStackOracle{}
	for i := 0; i < 5000; i++ {
		sym := int32(rng.Intn(32))
		gotFirst := s.Access(sym)
		wantFirst := o.access(sym)
		if gotFirst != wantFirst {
			t.Fatalf("step %d: first = %v, want %v", i, gotFirst, wantFirst)
		}
		if got := s.AppendTopK(nil, len(o.s)+1); !reflect.DeepEqual(got, o.s) {
			t.Fatalf("step %d: stack %v, want %v", i, got, o.s)
		}
	}
}

func TestDistancesSmall(t *testing.T) {
	// Trace:        a b c a   a=dist 3 at t=3... then b at dist 3, c 2...
	syms := []int32{0, 1, 2, 0, 1, 2, 2}
	want := []int{Infinite, Infinite, Infinite, 3, 3, 3, 1}
	got := Distances(syms)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Distances = %v, want %v", got, want)
	}
}

func TestDistancesMatchesNaive(t *testing.T) {
	f := func(raw []uint8) bool {
		syms := make([]int32, len(raw))
		for i, r := range raw {
			syms[i] = int32(r % 12)
		}
		return reflect.DeepEqual(Distances(syms), DistancesNaive(syms))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistancesLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	syms := make([]int32, 3000)
	for i := range syms {
		syms[i] = int32(rng.Intn(100))
	}
	if !reflect.DeepEqual(Distances(syms), DistancesNaive(syms)) {
		t.Error("Distances disagrees with naive on large random trace")
	}
}

func TestHistogramAndMissRatio(t *testing.T) {
	syms := []int32{0, 1, 0, 1, 0, 1}
	d := Distances(syms) // inf inf 2 2 2 2
	hist, cold := Histogram(d)
	if cold != 2 {
		t.Errorf("cold = %d, want 2", cold)
	}
	if hist[2] != 4 {
		t.Errorf("hist[2] = %d, want 4", hist[2])
	}
	mr := MissRatioCurve(hist, cold, int64(len(syms)))
	if mr[0] != 1 {
		t.Errorf("mr[0] = %v, want 1", mr[0])
	}
	// Cache of 1 symbol: every access misses except none (alternating).
	if want := 1.0; mr[1] != want {
		t.Errorf("mr[1] = %v, want %v", mr[1], want)
	}
	// Cache of 2 symbols holds both: only cold misses remain.
	if want := 2.0 / 6.0; mr[2] != want {
		t.Errorf("mr[2] = %v, want %v", mr[2], want)
	}
}

func TestMissRatioCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	syms := make([]int32, 2000)
	for i := range syms {
		syms[i] = int32(rng.Intn(50))
	}
	d := Distances(syms)
	hist, cold := Histogram(d)
	mr := MissRatioCurve(hist, cold, int64(len(syms)))
	for c := 1; c < len(mr); c++ {
		if mr[c] > mr[c-1]+1e-12 {
			t.Fatalf("miss ratio not monotone at c=%d: %v > %v", c, mr[c], mr[c-1])
		}
	}
}

func BenchmarkDistances(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]int32, 1<<16)
	for i := range syms {
		syms[i] = int32(rng.Intn(4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distances(syms)
	}
}
