package obs

import (
	"sync"
	"testing"
)

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 3; i++ {
		if old, evicted := r.Push(i); evicted || old != 0 {
			t.Fatalf("Push(%d) into a non-full ring evicted %d", i, old)
		}
	}
	// Full: each further push returns the oldest entry it overwrote.
	for i := 4; i <= 7; i++ {
		old, evicted := r.Push(i)
		if !evicted || old != i-3 {
			t.Fatalf("Push(%d) = (%d, %v), want (%d, true)", i, old, evicted, i-3)
		}
	}
	got := r.Snapshot()
	want := []int{7, 6, 5}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v (newest first)", got, want)
		}
	}
	// The snapshot is a copy: later pushes leave it alone.
	r.Push(8)
	if got[0] != 7 {
		t.Fatalf("snapshot aliased the ring: %v", got)
	}
}

func TestRingSizeOne(t *testing.T) {
	r := NewRing[string](1)
	r.Push("a")
	if old, evicted := r.Push("b"); !evicted || old != "a" {
		t.Fatalf("Push(b) = (%q, %v), want (a, true)", old, evicted)
	}
	if got := r.Snapshot(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("snapshot = %v, want [b]", got)
	}
}

func TestRingNonPositiveSizePanics(t *testing.T) {
	for _, size := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d) did not panic", size)
				}
			}()
			NewRing[int](size)
		}()
	}
}

func TestRingPushZeroAlloc(t *testing.T) {
	r := NewRing[RuntimeSample](4)
	var sm RuntimeSample
	if n := testing.AllocsPerRun(1000, func() { r.Push(sm) }); n != 0 {
		t.Fatalf("Push allocs = %v, want 0", n)
	}
}

// TestRingConcurrentPush: concurrent pushers and readers (run under
// -race) leave exactly the last cap entries, each pushed value counted
// once across the evictions and the final snapshot.
func TestRingConcurrentPush(t *testing.T) {
	const writers, per, size = 4, 500, 16
	r := NewRing[int](size)
	var mu sync.Mutex
	seen := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				old, evicted := r.Push(w*per + i + 1)
				if evicted {
					mu.Lock()
					seen[old]++
					mu.Unlock()
				}
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != size {
		t.Fatalf("snapshot holds %d, want %d", len(snap), size)
	}
	for _, v := range snap {
		seen[v]++
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct values accounted for, want %d", len(seen), writers*per)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d accounted %d times", v, n)
		}
	}
}
