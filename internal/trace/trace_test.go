package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestTrimmed(t *testing.T) {
	cases := []struct {
		in, want []int32
	}{
		{nil, []int32{}},
		{[]int32{1}, []int32{1}},
		{[]int32{1, 1, 1}, []int32{1}},
		{[]int32{1, 2, 2, 3, 3, 3, 1}, []int32{1, 2, 3, 1}},
		{[]int32{5, 5, 4, 4, 5}, []int32{5, 4, 5}},
	}
	for _, c := range cases {
		in := New(c.in)
		got := in.Trimmed()
		if !reflect.DeepEqual(got.Syms, c.want) {
			t.Errorf("Trimmed(%v) = %v, want %v", c.in, got.Syms, c.want)
		}
		if !got.IsTrimmed() {
			t.Errorf("Trimmed(%v) is not trimmed", c.in)
		}
		// AsTrimmed gives the same symbols, and is the trace itself
		// exactly when it is already trimmed.
		as := in.AsTrimmed()
		if !slices.Equal(as.Syms, c.want) || (as == in) != in.IsTrimmed() {
			t.Errorf("AsTrimmed(%v) = %v (same trace: %v), want %v", c.in, as.Syms, as == in, c.want)
		}
	}
}

func TestTrimmedIdempotent(t *testing.T) {
	f := func(syms []uint8) bool {
		in := make([]int32, len(syms))
		for i, s := range syms {
			in[i] = int32(s % 8)
		}
		once := New(in).Trimmed()
		twice := once.Trimmed()
		return reflect.DeepEqual(once.Syms, twice.Syms) && once.IsTrimmed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountsAndDistinct(t *testing.T) {
	tr := New([]int32{0, 2, 2, 5, 0, 2})
	c := tr.Counts()
	want := []int64{2, 0, 3, 0, 0, 1}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("Counts = %v, want %v", c, want)
	}
	if got := tr.NumDistinct(); got != 3 {
		t.Errorf("NumDistinct = %d, want 3", got)
	}
	if got := tr.MaxSym(); got != 5 {
		t.Errorf("MaxSym = %d, want 5", got)
	}
	if got := New(nil).MaxSym(); got != -1 {
		t.Errorf("empty MaxSym = %d, want -1", got)
	}
}

func TestTopNAndPruning(t *testing.T) {
	// Symbol 1 occurs 5x, symbol 2 occurs 3x, symbol 3 occurs 1x.
	tr := New([]int32{1, 2, 1, 3, 1, 2, 1, 2, 1})
	top := tr.TopN(2)
	if !top[1] || !top[2] || top[3] {
		t.Errorf("TopN(2) = %v, want {1,2}", top)
	}
	pruned, frac := tr.PruneTopN(2)
	if pruned.Len() != 8 {
		t.Errorf("PruneTopN kept %d occurrences, want 8", pruned.Len())
	}
	if want := 8.0 / 9.0; frac != want {
		t.Errorf("PruneTopN retention = %v, want %v", frac, want)
	}
	for _, s := range pruned.Syms {
		if s == 3 {
			t.Error("PruneTopN kept pruned symbol 3")
		}
	}
	// n larger than the alphabet keeps everything.
	all, frac := tr.PruneTopN(100)
	if all.Len() != tr.Len() || frac != 1 {
		t.Errorf("PruneTopN(100) kept %d (frac %v), want all", all.Len(), frac)
	}
}

func TestTopNDeterministicTieBreak(t *testing.T) {
	tr := New([]int32{4, 7, 4, 7, 2})
	top := tr.TopN(1)
	if len(top) != 1 || !top[4] {
		t.Errorf("TopN(1) tie break = %v, want {4}", top)
	}
}

func TestPrunedPreservesOrder(t *testing.T) {
	tr := New([]int32{9, 1, 9, 2, 9, 1})
	got := tr.Pruned(func(s int32) bool { return s != 9 })
	want := []int32{1, 2, 1}
	if !reflect.DeepEqual(got.Syms, want) {
		t.Errorf("Pruned = %v, want %v", got.Syms, want)
	}
}

func TestSampleStride(t *testing.T) {
	tr := New([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	got := tr.SampleStride(2, 5)
	want := []int32{0, 1, 5, 6}
	if !reflect.DeepEqual(got.Syms, want) {
		t.Errorf("SampleStride(2,5) = %v, want %v", got.Syms, want)
	}
	// Tail window shorter than windowLen is kept.
	got = tr.SampleStride(3, 4)
	want = []int32{0, 1, 2, 4, 5, 6, 8, 9}
	if !reflect.DeepEqual(got.Syms, want) {
		t.Errorf("SampleStride(3,4) = %v, want %v", got.Syms, want)
	}
	// Degenerate parameters yield an empty trace.
	if got := tr.SampleStride(0, 5); got.Len() != 0 {
		t.Errorf("SampleStride(0,5) = %v, want empty", got.Syms)
	}
	if got := tr.SampleStride(5, 3); got.Len() != 0 {
		t.Errorf("SampleStride(5,3) = %v, want empty", got.Syms)
	}
}

func TestConcat(t *testing.T) {
	a := New([]int32{1, 2})
	b := New([]int32{3})
	got := a.Concat(b)
	if !reflect.DeepEqual(got.Syms, []int32{1, 2, 3}) {
		t.Errorf("Concat = %v", got.Syms)
	}
	// Concat does not alias its inputs.
	got.Syms[0] = 99
	if a.Syms[0] != 1 {
		t.Error("Concat aliased input")
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 1000, 50000} {
		syms := make([]int32, n)
		cur := int32(500)
		for i := range syms {
			cur += int32(rng.Intn(21) - 10)
			if cur < 0 {
				cur = 0
			}
			syms[i] = cur
		}
		in := New(syms)
		var buf bytes.Buffer
		if _, err := in.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo(n=%d): %v", n, err)
		}
		out, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("ReadFrom(n=%d): %v", n, err)
		}
		if !reflect.DeepEqual(in.Syms, out.Syms) && !(len(in.Syms) == 0 && len(out.Syms) == 0) {
			t.Fatalf("round trip mismatch at n=%d", n)
		}
	}
}

func TestFileRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("XXXX\x01\x00"))); err == nil {
		t.Error("ReadFrom accepted bad magic")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte("CLTR\x09\x00"))); err == nil {
		t.Error("ReadFrom accepted bad version")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte("CLTR\x01\x05\x02"))); err == nil {
		t.Error("ReadFrom accepted truncated body")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("ReadFrom accepted empty input")
	}
}

func TestFileDeltaEncodingIsCompact(t *testing.T) {
	// Clustered IDs should encode in ~1 byte per occurrence.
	syms := make([]int32, 10000)
	for i := range syms {
		syms[i] = int32(1000 + i%4)
	}
	var buf bytes.Buffer
	if _, err := New(syms).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > len(syms)*2 {
		t.Errorf("encoded size %d bytes for %d clustered occurrences; want < 2 B/occ", buf.Len(), len(syms))
	}
}

func TestFuncTraceUsesEnclosingFunctions(t *testing.T) {
	p := buildTwoFuncProg(t)
	// Block IDs: main has blocks 0,1; F has blocks 2,3.
	bt := New([]int32{0, 1, 2, 3, 2, 1, 0})
	ft := FuncTrace(p, bt)
	want := []int32{0, 1, 0}
	if !reflect.DeepEqual(ft.Syms, want) {
		t.Errorf("FuncTrace = %v, want %v", ft.Syms, want)
	}
	if !ft.IsTrimmed() {
		t.Error("FuncTrace not trimmed")
	}
}
