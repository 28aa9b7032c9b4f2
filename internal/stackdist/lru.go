// Package stackdist implements the stack-processing substrate of §II-F of
// the paper. Both locality models maintain an LRU stack over the code
// trace; the paper's implementation uses "a hash table plus a link list"
// (after the Linux kernel's virtual-page management) so that the stack can
// be searched in O(1) and its hot prefix scanned cheaply. This package
// provides that structure (LRUStack) plus an O(N log N) reuse-distance
// measurement built on a Fenwick tree, following the classic Mattson
// stack-simulation formulation.
package stackdist

// node is one entry of the intrusive doubly-linked stack list.
type node struct {
	sym        int32
	prev, next int32 // node indices; -1 terminates
}

// LRUStack is an LRU stack of symbols: the most recently accessed symbol
// is on top. Lookup is O(1) via a dense index keyed by symbol ID; the
// linked list preserves recency order so callers can scan the top-w
// prefix, which is what the TRG construction needs (the affinity
// passes keep only the top wmax, in a window of their own).
//
// The zero value is not usable; call NewLRUStack.
type LRUStack struct {
	nodes []node
	// pos maps symbol -> node index, or -1 if the symbol was never seen.
	pos  []int32
	head int32
	tail int32
	n    int
}

// NewLRUStack creates a stack for symbols in [0, maxSym].
func NewLRUStack(maxSym int32) *LRUStack {
	pos := make([]int32, maxSym+1)
	for i := range pos {
		pos[i] = -1
	}
	return &LRUStack{pos: pos, head: -1, tail: -1}
}

// Len returns the number of distinct symbols on the stack.
func (s *LRUStack) Len() int { return s.n }

// Contains reports whether sym has been accessed before.
func (s *LRUStack) Contains(sym int32) bool { return s.pos[sym] >= 0 }

// Access moves sym to the top of the stack and reports whether this is
// the first access to sym.
func (s *LRUStack) Access(sym int32) (first bool) {
	idx := s.pos[sym]
	if idx < 0 {
		idx = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{sym: sym, prev: -1, next: s.head})
		s.pos[sym] = idx
		if s.head >= 0 {
			s.nodes[s.head].prev = idx
		} else {
			s.tail = idx
		}
		s.head = idx
		s.n++
		return true
	}
	if idx == s.head {
		return false
	}
	// Unlink.
	nd := &s.nodes[idx]
	if nd.prev >= 0 {
		s.nodes[nd.prev].next = nd.next
	}
	if nd.next >= 0 {
		s.nodes[nd.next].prev = nd.prev
	} else {
		s.tail = nd.prev
	}
	// Push on top.
	nd.prev = -1
	nd.next = s.head
	s.nodes[s.head].prev = idx
	s.head = idx
	return false
}

// TopK visits up to k symbols from the top of the stack (most recent
// first), stopping early if visit returns false.
func (s *LRUStack) TopK(k int, visit func(sym int32) bool) {
	idx := s.head
	for i := 0; i < k && idx >= 0; i++ {
		if !visit(s.nodes[idx].sym) {
			return
		}
		idx = s.nodes[idx].next
	}
}

// AppendTopK appends up to k symbols from the top of the stack (most
// recent first) to dst and returns the extended slice: the snapshot
// form of TopK, scanned as a plain slice instead of paying an indirect
// call per visited element. The affinity passes keep only the top k in
// a window of their own, which their tests hold to this snapshot.
func (s *LRUStack) AppendTopK(dst []int32, k int) []int32 {
	idx := s.head
	nodes := s.nodes
	for i := 0; i < k && idx >= 0; i++ {
		dst = append(dst, nodes[idx].sym)
		idx = nodes[idx].next
	}
	return dst
}

// AppendTopKUntil appends symbols from the top of the stack (most recent
// first) to dst until stop is met (excluded), k symbols were appended, or
// the stack is exhausted, reporting whether stop was met. It is the
// snapshot form of the TRG construction's interleaving scan: everything
// above the current symbol's previous occurrence is interleaved with it.
func (s *LRUStack) AppendTopKUntil(dst []int32, k int, stop int32) ([]int32, bool) {
	idx := s.head
	nodes := s.nodes
	for i := 0; i < k && idx >= 0; i++ {
		sym := nodes[idx].sym
		if sym == stop {
			return dst, true
		}
		dst = append(dst, sym)
		idx = nodes[idx].next
	}
	return dst, false
}

// Reset empties the stack and re-sizes its symbol index for symbols in
// [0, maxSym], keeping backing capacity so a pooled stack can be reused
// across analyses without reallocating.
func (s *LRUStack) Reset(maxSym int32) {
	n := int(maxSym) + 1
	if cap(s.pos) >= n {
		s.pos = s.pos[:n]
	} else {
		s.pos = make([]int32, n)
	}
	for i := range s.pos {
		s.pos[i] = -1
	}
	s.nodes = s.nodes[:0]
	s.head, s.tail, s.n = -1, -1, 0
}

// Top returns the symbol on top of the stack, or -1 if empty.
func (s *LRUStack) Top() int32 {
	if s.head < 0 {
		return -1
	}
	return s.nodes[s.head].sym
}

// DepthOf returns the 1-based depth of sym (1 = top of stack) by walking
// the list, or -1 if sym was never accessed. This is O(depth); the
// Distances function below measures all depths in O(N log N) instead.
func (s *LRUStack) DepthOf(sym int32) int {
	idx := s.pos[sym]
	if idx < 0 {
		return -1
	}
	d := 1
	for cur := s.head; cur >= 0; cur = s.nodes[cur].next {
		if cur == idx {
			return d
		}
		d++
	}
	return -1
}
