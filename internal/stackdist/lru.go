// Package stackdist implements the stack-processing substrate of §II-F of
// the paper. Both locality models maintain an LRU stack over the code
// trace, but read only its top: the affinity passes the top wmax, and
// the TRG and CMG constructions the blocks above a re-accessed one,
// within a bounded window. Window keeps just that top, as a
// move-to-front array, and Distinct finds the span a shard replays to
// warm it. The paper's implementation of the whole stack, "a hash table
// plus a link list" (after the Linux kernel's virtual-page management),
// is LRUStack, kept as the oracle the window is tested against. The
// package also provides an O(N log N) reuse-distance measurement built
// on a Fenwick tree, following the classic Mattson stack-simulation
// formulation.
package stackdist

// node is one entry of the intrusive doubly-linked stack list.
type node struct {
	sym        int32
	prev, next int32 // node indices; -1 terminates
}

// LRUStack is an LRU stack of symbols: the most recently accessed symbol
// is on top. Lookup is O(1) via a dense index keyed by symbol ID; the
// linked list preserves recency order so callers can scan the top-k
// prefix. The kernels keep only that prefix, in a Window; the stack is
// the reference their tests hold the window to.
//
// The zero value is not usable; call NewLRUStack.
type LRUStack struct {
	nodes []node
	// pos maps symbol -> node index, or -1 if the symbol was never seen.
	pos  []int32
	head int32
}

// NewLRUStack creates a stack for symbols in [0, maxSym].
func NewLRUStack(maxSym int32) *LRUStack {
	pos := make([]int32, maxSym+1)
	for i := range pos {
		pos[i] = -1
	}
	return &LRUStack{pos: pos, head: -1}
}

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
		}
		s.head = idx
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
	}
	// Push on top.
	nd.prev = -1
	nd.next = s.head
	s.nodes[s.head].prev = idx
	s.head = idx
	return false
}

// AppendTopK appends up to k symbols from the top of the stack (most
// recent first) to dst and returns the extended slice: the top k a
// Window of capacity k holds.
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
// interleaving scan of the TRG and CMG constructions as first written:
// everything above the current symbol's previous occurrence is
// interleaved with it.
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
