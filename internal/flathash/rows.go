package flathash

import (
	"cmp"
	"slices"
	"unsafe"
)

// Entry is one slot of a row table: a partner symbol and its value.
// Partner is -1 in an empty slot.
type Entry[V any] struct {
	Partner int32
	Val     V
}

// rowHead locates one row's table in the shared slot slice.
type rowHead struct {
	off  int32 // first slot of the table
	n    int32 // entries in the table
	bits int32 // log2 of the table size; 0 while the row has no table
}

// minRowBits sizes a row's first table (8 slots).
const minRowBits = 3

// Rows is the row-major pair storage of the analysis kernels: one small
// open-addressed table per row symbol, keyed by partner symbol. The
// kernels update many partners of one symbol at a time, so the updates
// land in one table of a few cache lines instead of scattering over a
// table of every pair.
//
// All tables live in one backing slice. A row's table doubles when it
// passes the load factor: the larger table is appended and the old one
// abandoned. When an append would outgrow the slice, the live tables
// are packed to its front, and if they still do not fit with the new
// table, moved to a slice of twice the live tables' slots. So the
// backing slice never holds more than twice the slots of the live
// tables, and a reset table regrows in the slice it already has:
// steady-state accumulation allocates nothing.
//
// The zero value has no rows; Reset or Extend adds them.
type Rows[V any] struct {
	heads []rowHead
	slots []Entry[V]
	live  int     // slots in the rows' current tables
	order []int32 // compaction scratch: rows in table-offset order
}

// rowHash spreads a partner symbol over a table of 1<<bits slots
// (Fibonacci hashing, as hash does for pair keys).
func rowHash(partner int32, bits int32) uint32 {
	return (uint32(partner) * 0x9E3779B9) >> (32 - bits)
}

// Reset clears every row and sets the row count to n, keeping the
// backing capacity for reuse.
func (t *Rows[V]) Reset(n int) {
	if cap(t.heads) < n {
		t.heads = make([]rowHead, n)
	} else {
		t.heads = t.heads[:n]
		clear(t.heads)
	}
	t.slots = t.slots[:0]
	t.live = 0
}

// Extend raises the row count to n, keeping every row's entries. A
// smaller n is a no-op.
func (t *Rows[V]) Extend(n int) {
	if n > len(t.heads) {
		t.heads = append(t.heads, make([]rowHead, n-len(t.heads))...)
	}
}

// NumRows returns the row count.
func (t *Rows[V]) NumRows() int { return len(t.heads) }

// Len returns the number of entries over all rows.
func (t *Rows[V]) Len() int {
	n := 0
	for _, h := range t.heads {
		n += int(h.n)
	}
	return n
}

// Bytes returns the storage the rows hold: the backing slot slice at its
// capacity plus the row heads.
func (t *Rows[V]) Bytes() int {
	return cap(t.slots)*int(unsafe.Sizeof(Entry[V]{})) + cap(t.heads)*int(unsafe.Sizeof(rowHead{}))
}

// Row returns row's table, empty slots included (Partner -1), in slot
// order. The slice aliases the backing storage and is invalidated by the
// next insertion into any row.
func (t *Rows[V]) Row(row int32) []Entry[V] {
	h := t.heads[row]
	if h.bits == 0 {
		return nil
	}
	return t.slots[h.off : h.off+1<<h.bits]
}

// Get returns partner's value in row, and whether it is present. A row
// outside [0, NumRows) holds nothing, and no row holds a negative
// partner.
func (t *Rows[V]) Get(row, partner int32) (V, bool) {
	if row >= 0 && partner >= 0 && int(row) < len(t.heads) {
		if tab := t.Row(row); tab != nil {
			mask := uint32(len(tab) - 1)
			for i := rowHash(partner, t.heads[row].bits); ; i = (i + 1) & mask {
				if tab[i].Partner == partner {
					return tab[i].Val, true
				}
				if tab[i].Partner < 0 {
					break
				}
			}
		}
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to partner's value in row, inserting a zero
// value if absent. The pointer is invalidated by the next insertion into
// any row. row must be below NumRows and partner non-negative.
func (t *Rows[V]) Ref(row, partner int32) *V {
	c := t.Cursor(row)
	return c.Ref(partner)
}

// MergeFrom merges every entry of src into t, row by row: merge combines
// the value in t (zero if the partner is new to the row) with src's.
// Like Sum64.MergeFrom, it first grows each row's table to at least the
// size of src's, so inserting in src's slot order cannot build one long
// probe run.
func (t *Rows[V]) MergeFrom(src *Rows[V], merge func(dst *V, src V)) {
	t.Extend(len(src.heads))
	for r, sh := range src.heads {
		if sh.n == 0 {
			continue
		}
		row := int32(r)
		if t.heads[r].bits < sh.bits {
			t.grow(row, sh.bits)
		}
		c := t.Cursor(row)
		for _, e := range src.slots[sh.off : sh.off+1<<sh.bits] {
			if e.Partner >= 0 {
				merge(c.Ref(e.Partner), e.Val)
			}
		}
	}
}

// Cursor is a handle on one row for a run of updates, the kernels' hot
// loop: it keeps the row's table at hand, so an update is the probe
// alone. Rows other than the cursor's must not change while it is in
// use.
type Cursor[V any] struct {
	t    *Rows[V]
	row  int32
	bits int32
	free int32 // insertions left before the table must grow
	tab  []Entry[V]
}

// Cursor returns a handle on row, giving the row a table if it has none.
func (t *Rows[V]) Cursor(row int32) Cursor[V] {
	if t.heads[row].bits == 0 {
		t.grow(row, minRowBits)
	}
	h := t.heads[row]
	size := int32(1) << h.bits
	return Cursor[V]{t: t, row: row, bits: h.bits, free: size*maxLoadNum/maxLoadDen - h.n,
		tab: t.slots[h.off : h.off+size]}
}

// Ref returns a pointer to partner's value in the cursor's row,
// inserting a zero value if absent. The pointer is invalidated by the
// next insertion. partner must be non-negative.
func (c *Cursor[V]) Ref(partner int32) *V {
	mask := uint32(len(c.tab) - 1)
	for i := rowHash(partner, c.bits); ; i = (i + 1) & mask {
		e := &c.tab[i]
		if e.Partner == partner {
			return &e.Val
		}
		if e.Partner < 0 {
			if c.free == 0 {
				return c.growRef(partner)
			}
			c.free--
			c.t.heads[c.row].n++
			e.Partner = partner
			return &e.Val
		}
	}
}

// growRef doubles the cursor's table, then inserts partner.
func (c *Cursor[V]) growRef(partner int32) *V {
	c.t.grow(c.row, c.bits+1)
	*c = c.t.Cursor(c.row)
	return c.Ref(partner)
}

// grow moves row's entries into a fresh table of 1<<bits slots at the
// end of the backing slice, compacting first if the slice is full.
func (t *Rows[V]) grow(row int32, bits int32) {
	size := 1 << bits
	h := &t.heads[row]
	if len(t.slots)+size > cap(t.slots) {
		t.compact(size, len(t.Row(row)))
	}
	old := t.Row(row)
	off := len(t.slots)
	t.slots = t.slots[:off+size]
	tab := t.slots[off:]
	for i := range tab {
		tab[i] = Entry[V]{Partner: -1}
	}
	mask := uint32(size - 1)
	for _, e := range old {
		if e.Partner < 0 {
			continue
		}
		i := rowHash(e.Partner, bits)
		for tab[i].Partner >= 0 {
			i = (i + 1) & mask
		}
		tab[i] = e
	}
	t.live += size - len(old)
	h.off, h.bits = int32(off), bits
}

// compact packs the live tables to the front of the backing slice,
// dropping the abandoned ones, to make room for a new table of need
// slots that replaces one of old slots. If the live tables and the new
// one still overflow the slice, they move to a new slice of twice the
// slots the tables hold once the old one is dropped; that is always
// room enough for both, since old is at most the live slots.
func (t *Rows[V]) compact(need, old int) {
	t.order = t.order[:0]
	for r, h := range t.heads {
		if h.bits != 0 {
			t.order = append(t.order, int32(r))
		}
	}
	heads := t.heads
	slices.SortFunc(t.order, func(a, b int32) int { return cmp.Compare(heads[a].off, heads[b].off) })
	dst := t.slots[:cap(t.slots)]
	if t.live+need > cap(t.slots) {
		dst = make([]Entry[V], 2*(t.live-old+need))
	}
	pos := int32(0)
	for _, r := range t.order {
		h := &heads[r]
		size := int32(1) << h.bits
		copy(dst[pos:pos+size], t.slots[h.off:h.off+size])
		h.off = pos
		pos += size
	}
	t.slots = dst[:pos]
}
