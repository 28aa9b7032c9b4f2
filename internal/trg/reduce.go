package trg

import "slices"

// Reduce runs the paper's TRG reduction (Algorithm 2) with K code slots
// and returns the new code sequence.
//
// The algorithm repeatedly takes the heaviest remaining edge; each
// unplaced endpoint chooses a slot — the first empty one, otherwise the
// slot whose (merged) node it conflicts with least — is appended to that
// slot's linked list, and is combined with the slot's node in the graph
// (edge weights to common neighbours add up). Edges between the newly
// merged node and the other slots' nodes are removed (steps 19-21).
// Finally the sequence is emitted by sweeping the K lists round-robin,
// popping one header per non-empty list per sweep (steps 25-29), so that
// blocks sharing a slot end up K positions apart.
//
// Nodes that never gain an edge are appended after the reduction output
// in the graph's node order, keeping the result a permutation of all
// nodes. Edge weights are conflict counts and must be positive, as in
// every graph Build and Feeder produce.
//
// Edges are taken in order of weight, heaviest first, ties broken by the
// smaller packed symbol pair. The only ties in that order are an edge
// and its reverse orientation, pushed when one endpoint had already been
// placed; both act on the one unplaced endpoint, so the sequence does
// not depend on which is taken first. A merge that changes an edge's
// weight queues the edge again, heavier, so the refreshed entry is taken
// first and places the unplaced endpoint: an entry whose weight is out
// of date finds both endpoints placed and needs no staleness test.
// DESIGN.md §9 gives the state this runs on.
func Reduce(g *Graph, k int) []int32 {
	if k < 1 {
		k = 1
	}
	r := newReducer(g, k)
	for r.placed < r.linked {
		e, ok := r.pop()
		if !ok {
			break
		}
		if r.slotOf[e.a] < 0 {
			r.place(e.a)
		}
		if r.slotOf[e.b] < 0 {
			r.place(e.b)
		}
	}
	return r.emit()
}

// reducer is the reduction's state, indexed densely by node (the
// position of a symbol in Graph.nodes) and by slot.
//
// An edge between two unplaced nodes is never changed by the reduction,
// so it is read from the static CSR adjacency. Every placed node belongs
// to a slot, and the only other live edges join a slot's merged node to
// an unplaced node: *cell(u, s) is that weight for node u and slot s, 0
// when there is no edge. There are no live edges between slots (steps
// 19-21 remove them as soon as they form).
type reducer struct {
	sym   []int32 // node -> symbol
	slots int     // the slots that can ever fill: min(k, nodes)

	// off/nbr/nw is the graph's adjacency in CSR form, built from its
	// rows: node u's neighbours are nbr[off[u]:off[u+1]] with weights nw.
	off []int32
	nbr []int32
	nw  []int64

	w      []int64 // nodes × slots
	slotOf []int32 // node -> its slot, -1 while unplaced

	// Node degrees as the reference's adjacency maps count them, which
	// decide which side of a merge keeps its ID: an unplaced node u has
	// free[u] unplaced neighbours plus slotDeg[u] slots it has an edge
	// to, and slot s has size[s] unplaced neighbours.
	free    []int32
	slotDeg []int32
	size    []int32

	// rep[s] is the node whose ID slot s's merged node carries, members[s]
	// the slot's code blocks in arrival order, and near[s] its unplaced
	// neighbours (placed ones are pruned lazily).
	rep     []int32
	members [][]int32
	near    [][]int32
	used    int

	// The edge stream: the graph's edges in stream order, put there
	// once by counting and radix sorts, merged with a heap of the
	// entries merges refresh.
	sorted []entry
	next   int
	heap   []entry

	placed, linked int // nodes placed; nodes with at least one edge
}

// entry is one edge of the stream. a and b are nodes; key packs their
// symbols and breaks weight ties.
type entry struct {
	w    int64
	key  int64
	a, b int32
}

// before is the stream order: heavier first, then the smaller key.
func before(x, y entry) bool {
	return x.w > y.w || x.w == y.w && x.key < y.key
}

func newReducer(g *Graph, k int) *reducer {
	n := len(g.nodes)
	slots := min(k, n)
	r := &reducer{
		sym:     g.nodes,
		slots:   slots,
		off:     make([]int32, n+1),
		slotOf:  make([]int32, n),
		free:    make([]int32, n),
		slotDeg: make([]int32, n),
		size:    make([]int32, slots),
		rep:     make([]int32, slots),
		members: make([][]int32, slots),
		near:    make([][]int32, slots),
	}
	node := make([]int32, len(g.seen))
	for i, s := range g.nodes {
		node[s] = int32(i)
		r.slotOf[i] = -1
	}
	edges := g.keyedEdges(node)
	for _, e := range edges {
		r.free[e.a]++
		r.free[e.b]++
	}
	for u, d := range r.free {
		r.off[u+1] = r.off[u] + d
		if d > 0 {
			r.linked++
		}
	}
	r.nbr = make([]int32, 2*len(edges))
	r.nw = make([]int64, 2*len(edges))
	fill := slices.Clone(r.off[:n])
	for _, e := range edges {
		r.nbr[fill[e.a]], r.nw[fill[e.a]] = e.b, e.w
		fill[e.a]++
		r.nbr[fill[e.b]], r.nw[fill[e.b]] = e.a, e.w
		fill[e.b]++
	}
	r.sorted = heaviestFirst(edges)
	r.w = make([]int64, n*slots)
	return r
}

// keyedEdges returns the graph's edges in ascending pair-key order, as
// stream entries over the dense node indices node. Two stable counting
// sorts of the directed row entries, by larger symbol and then by
// smaller, order them by pair key and put each edge's two directions
// side by side, where they add up: O(entries + symbols), no comparisons.
// Rows are visited in symbol order, so an entry in the larger symbol's
// row is already in place for the first sort; only the entries from
// the smaller symbol's row are bucketed.
func (g *Graph) keyedEdges(node []int32) []entry {
	nsym := int32(g.rows.NumRows())
	up := make([]int32, nsym+1)   // entries a->b with a < b, by b
	byLo := make([]int32, nsym+1) // all entries, by smaller symbol
	for a := int32(0); a < nsym; a++ {
		for _, e := range g.rows.Row(a) {
			if b := e.Partner; b > a {
				up[b+1]++
				byLo[a+1]++
			} else if b >= 0 {
				byLo[b+1]++
			}
		}
	}
	for s := int32(1); s <= nsym; s++ {
		up[s] += up[s-1]
		byLo[s] += byLo[s-1]
	}
	from := make([]int32, up[nsym])
	w := make([]int64, up[nsym])
	for a := int32(0); a < nsym; a++ {
		for _, e := range g.rows.Row(a) {
			if b := e.Partner; b > a {
				from[up[b]], w[up[b]] = a, e.Val
				up[b]++
			}
		}
	}
	// up[b] now ends b's bucket. For each larger symbol h in order,
	// deal out its bucket and its own row's entries by smaller symbol.
	edges := make([]entry, byLo[nsym])
	put := func(l, h int32, w int64) {
		edges[byLo[l]] = entry{w: w, key: pairKey(l, h), a: node[l], b: node[h]}
		byLo[l]++
	}
	start := int32(0)
	for h := int32(0); h < nsym; h++ {
		for i := start; i < up[h]; i++ {
			put(from[i], h, w[i])
		}
		start = up[h]
		for _, e := range g.rows.Row(h) {
			if l := e.Partner; l >= 0 && l < h {
				put(l, h, e.Val)
			}
		}
	}
	out := edges[:0]
	for i := 0; i < len(edges); i++ {
		e := edges[i]
		if i+1 < len(edges) && edges[i+1].key == e.key {
			i++
			e.w += edges[i].w
		}
		if e.w != 0 {
			out = append(out, e)
		}
	}
	return out
}

// heaviestFirst orders edges, given in ascending key order, by weight,
// heaviest first, keeping key order among equal weights: a stable LSD
// radix sort on the weight's bytes, each pass bucketing by the byte's
// complement. Weights are positive.
func heaviestFirst(edges []entry) []entry {
	var top int64
	for _, e := range edges {
		top = max(top, e.w)
	}
	buf := make([]entry, len(edges))
	for shift := 0; shift < 64 && top>>shift > 0; shift += 8 {
		var pos [256]int
		for _, e := range edges {
			pos[255-byte(e.w>>shift)]++
		}
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for _, e := range edges {
			d := 255 - byte(e.w>>shift)
			buf[pos[d]] = e
			pos[d]++
		}
		edges, buf = buf, edges
	}
	return edges
}

// cell returns the weight of the edge between node u and slot s's node.
func (r *reducer) cell(u int32, s int) *int64 {
	return &r.w[int(u)*r.slots+s]
}

// pop returns the next edge of the stream.
func (r *reducer) pop() (entry, bool) {
	if len(r.heap) > 0 && (r.next == len(r.sorted) || before(r.heap[0], r.sorted[r.next])) {
		return r.popHeap(), true
	}
	if r.next < len(r.sorted) {
		r.next++
		return r.sorted[r.next-1], true
	}
	return entry{}, false
}

// place assigns the unplaced node u to a slot per steps 4-22 of
// Algorithm 2.
func (r *reducer) place(u int32) {
	col := r.w[int(u)*r.slots:][:r.slots]
	if r.used < r.slots {
		// First occupant of the first empty slot: u becomes the slot's
		// node, keeping its edges to unplaced nodes and losing those to
		// the other slots.
		s := r.used
		r.used++
		r.rep[s] = u
		r.settle(u, s, col)
		for i := r.off[u]; i < r.off[u+1]; i++ {
			r.join(s, r.nbr[i], r.nw[i])
		}
		return
	}
	s := 0
	for c := 1; c < r.slots; c++ {
		if col[c] < col[s] {
			s = c
		}
	}
	// Step 18 combines u with the slot's node. As in the reference's
	// union by degree, the side with more neighbours (the slot's on a
	// tie) keeps its ID, and only the other side's edges get refreshed
	// stream entries.
	keep := r.size[s] >= r.free[u]+r.slotDeg[u]
	rep := r.rep[s]
	seen := len(r.near[s])
	r.settle(u, s, col)
	for i := r.off[u]; i < r.off[u+1]; i++ {
		v := r.nbr[i]
		if r.join(s, v, r.nw[i]) && keep {
			r.push(s, rep, v)
		}
	}
	if keep {
		return
	}
	r.rep[s] = u
	live := r.near[s][:0]
	for i, v := range r.near[s] {
		if r.slotOf[v] >= 0 {
			continue
		}
		if i < seen {
			r.push(s, u, v)
		}
		live = append(live, v)
	}
	r.near[s] = live
}

// settle records u as placed in slot s and drops its edges to every
// slot; col is u's row of w.
func (r *reducer) settle(u int32, s int, col []int64) {
	r.slotOf[u] = int32(s)
	r.members[s] = append(r.members[s], r.sym[u])
	r.placed++
	for c := 0; c < r.used; c++ {
		if col[c] != 0 {
			r.size[c]--
		}
	}
}

// join adds weight w of an edge from a node just placed in slot s to v,
// reporting whether v is unplaced (and so gained or grew an edge).
func (r *reducer) join(s int, v int32, w int64) bool {
	if r.slotOf[v] >= 0 {
		return false
	}
	p := r.cell(v, s)
	if *p == 0 {
		r.near[s] = append(r.near[s], v)
		r.size[s]++
		r.slotDeg[v]++
	}
	*p += w
	r.free[v]--
	return true
}

// push queues the refreshed edge between slot s's node, carrying the ID
// of node a, and unplaced node v.
func (r *reducer) push(s int, a, v int32) {
	r.heap = append(r.heap, entry{w: *r.cell(v, s), key: pairKey(r.sym[a], r.sym[v]), a: a, b: v})
	h := r.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (r *reducer) popHeap() entry {
	h := r.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	r.heap = h
	return top
}

// emit sweeps the slot lists round-robin (steps 25-29), then appends the
// nodes never placed in graph order.
func (r *reducer) emit() []int32 {
	out := make([]int32, 0, len(r.sym))
	for depth := 0; len(out) < r.placed; depth++ {
		for s := 0; s < r.used; s++ {
			if depth < len(r.members[s]) {
				out = append(out, r.members[s][depth])
			}
		}
	}
	for u, s := range r.slotOf {
		if s < 0 {
			out = append(out, r.sym[u])
		}
	}
	return out
}
