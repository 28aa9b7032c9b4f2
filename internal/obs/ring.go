package obs

import "sync"

// Ring is a fixed-capacity, mutex-guarded ring buffer: once full, Push
// overwrites the oldest entry. It is the one bounded FIFO behind
// layoutd's always-on flight recorders (recent jobs, the event log, the
// runtime sampler) and the forward log's eviction order — memory never
// exceeds the capacity, and Push does not allocate.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int // slot the next Push writes
	n    int // entries held, at most len(buf)
}

// NewRing returns an empty ring of the given capacity, which must be
// positive: callers resolve their "size <= 0 means the default" knobs
// before constructing one.
func NewRing[T any](size int) *Ring[T] {
	if size <= 0 {
		panic("obs: ring size must be positive")
	}
	return &Ring[T]{buf: make([]T, size)}
}

// Push appends v. When the ring was already full it returns the entry v
// overwrote and true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		old, evicted = r.buf[r.next], true
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
	return old, evicted
}

// Snapshot returns a copy of the held entries, newest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}
