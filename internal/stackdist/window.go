package stackdist

// Window is the top of an LRU stack, most recent first, holding at most
// its capacity of symbols. After an access, the top k of an LRU stack
// are the accessed symbol followed by the previous top k without it,
// truncated to k, so the window follows the full stack's top k exactly
// while holding only k symbols, and reading it is reading a slice. The
// affinity passes read its top wmax, and the TRG and CMG constructions
// read the blocks above a re-accessed one, so no kernel needs the rest
// of the stack.
//
// The zero value holds nothing; call Reset.
type Window struct {
	syms []int32
}

// Reset empties the window and sets its capacity to min(limit,
// maxSym+1): a stack over symbols [0, maxSym] never holds more, so an
// unbounded limit costs no more than the alphabet.
func (w *Window) Reset(limit int, maxSym int32) {
	k := min(limit, int(maxSym)+1)
	if cap(w.syms) < k {
		w.syms = make([]int32, 0, k)
	}
	w.syms = w.syms[:0:k]
}

// Access moves s to the top and returns d, the number of symbols that
// were above it: the symbols accessed since s's previous access, now at
// Syms()[1:d+1]. d is -1 if s was not in the window (its previous access
// lies below the capacity, or there is none). One pass carries each
// entry down a place until it reaches s's old place, or the bottom,
// where the old bottom entry stays only if the window has room for it.
func (w *Window) Access(s int32) int {
	syms := w.syms
	carry := s
	for i := range syms {
		carry, syms[i] = syms[i], carry
		if carry == s {
			return i
		}
	}
	if len(syms) < cap(syms) {
		w.syms = append(syms, carry)
	}
	return -1
}

// Syms returns the window, most recent first. The slice is the
// window's own; the next Access changes it.
func (w *Window) Syms() []int32 { return w.syms }

// Distinct is an epoch-stamped set of symbols: Clear empties it in O(1)
// by moving to a new epoch, so a reused set allocates nothing once it
// has grown to the alphabet. Its span scans find the warm-up of a
// shard: the top k of an LRU stack at a position are fixed by the
// shortest span next to it holding k distinct symbols, so replaying
// that span into an empty Window warms it exactly.
//
// The zero value covers no symbols; Grow sizes it, and Clear must
// precede the first Add.
type Distinct struct {
	stamp []int32
	epoch int32
}

// Grow sizes the set for symbols in [0, maxSym], keeping its members.
func (d *Distinct) Grow(maxSym int32) {
	if n := int(maxSym) + 1; n > len(d.stamp) {
		d.stamp = append(d.stamp, make([]int32, n-len(d.stamp))...)
	}
}

// Clear empties the set. On int32 epoch wrap-around (once per ~2^31
// clears) it re-zeros the stamps.
func (d *Distinct) Clear() {
	d.epoch++
	if d.epoch <= 0 {
		clear(d.stamp)
		d.epoch = 1
	}
}

// Add inserts s and reports whether it was absent.
func (d *Distinct) Add(s int32) bool {
	if d.stamp[s] == d.epoch {
		return false
	}
	d.stamp[s] = d.epoch
	return true
}

// Before returns the largest p <= lo such that syms[p:lo] holds need
// distinct symbols, or 0 if syms[:lo] holds fewer. Replaying syms[p:lo]
// into an empty Window reproduces the full stack's top need at lo: the
// need most recent distinct symbols all have their last access before
// lo in [p, lo), in the same recency order. The scan clears the set.
//
// The scans run once per pass and stay out of line: inlined, they
// crowd the registers of the callers' window loops, which then spill
// their counters.
//
//go:noinline
func (d *Distinct) Before(syms []int32, lo, need int) int {
	d.Clear()
	count, p := 0, lo
	for p > 0 && count < need {
		p--
		if d.Add(syms[p]) {
			count++
		}
	}
	return p
}

// After is Before on the reversed trace: the smallest q >= hi such
// that syms[hi:q] holds need distinct symbols, or len(syms) if
// syms[hi:] holds fewer. Replaying syms[hi:q] backward warms the
// reversed trace's stack at hi.
//
//go:noinline
func (d *Distinct) After(syms []int32, hi, need int) int {
	d.Clear()
	count, q := 0, hi
	for q < len(syms) && count < need {
		if d.Add(syms[q]) {
			count++
		}
		q++
	}
	return q
}
