// Package trace implements the profiling-trace substrate of the paper's
// system (§II-F): trimmed basic-block and function traces (Definition 1),
// popularity-based pruning (the Hashemi-style top-N selection the paper
// uses on 403.gcc's 8 GB trace), stride sampling, and a compact binary
// file format so traces can be recorded by an instrumentation run and
// consumed later by the locality models.
//
// A Trace is a sequence of symbol IDs. The same container holds
// basic-block traces (symbols are ir.BlockID values) and function traces
// (symbols are ir.FuncID values); the locality models in internal/affinity
// and internal/trg operate on either.
package trace

import "codelayout/internal/ir"

// Trace is a sequence of code-symbol occurrences.
type Trace struct {
	// Syms is the occurrence sequence. IDs must be non-negative.
	Syms []int32
}

// New wraps a symbol sequence in a Trace without copying.
func New(syms []int32) *Trace { return &Trace{Syms: syms} }

// Len returns the number of occurrences.
func (t *Trace) Len() int { return len(t.Syms) }

// MaxSym returns the largest symbol ID in the trace, or -1 if empty.
func (t *Trace) MaxSym() int32 {
	max := int32(-1)
	for _, s := range t.Syms {
		if s > max {
			max = s
		}
	}
	return max
}

// NumDistinct returns the number of distinct symbols.
func (t *Trace) NumDistinct() int {
	seen := make(map[int32]struct{})
	for _, s := range t.Syms {
		seen[s] = struct{}{}
	}
	return len(seen)
}

// Counts returns the occurrence count of every symbol, indexed by symbol
// ID (length MaxSym+1).
func (t *Trace) Counts() []int64 {
	n := t.MaxSym() + 1
	if n <= 0 {
		return nil
	}
	c := make([]int64, n)
	for _, s := range t.Syms {
		c[s]++
	}
	return c
}

// Trimmed returns a new trace with consecutive duplicate occurrences
// collapsed to one, per Definition 1 of the paper ("a sequence of basic
// blocks where no two consecutive blocks are the same").
func (t *Trace) Trimmed() *Trace {
	out := make([]int32, 0, len(t.Syms))
	prev := int32(-1)
	for _, s := range t.Syms {
		if s != prev {
			out = append(out, s)
			prev = s
		}
	}
	return &Trace{Syms: out}
}

// IsTrimmed reports whether no two consecutive occurrences are equal.
func (t *Trace) IsTrimmed() bool {
	for i := 1; i < len(t.Syms); i++ {
		if t.Syms[i] == t.Syms[i-1] {
			return false
		}
	}
	return true
}

// AsTrimmed returns t itself when it is already trimmed, else Trimmed():
// a reader that only reads a trimmed trace, such as an analysis kernel,
// then copies nothing for a trace its caller trimmed. The result may
// alias t.
func (t *Trace) AsTrimmed() *Trace {
	if t.IsTrimmed() {
		return t
	}
	return t.Trimmed()
}

// FuncTrace maps a basic-block trace to the trace of enclosing functions
// and trims it, per Definition 1's trimmed function trace. A first pass
// counts the function switches, so the result, a small fraction of the
// block trace, is allocated once at its exact length.
func FuncTrace(p *ir.Program, blocks *Trace) *Trace {
	n, prev := 0, int32(-1)
	for _, s := range blocks.Syms {
		if f := int32(p.Blocks[s].Fn); f != prev {
			n++
			prev = f
		}
	}
	out := make([]int32, 0, n)
	prev = -1
	for _, s := range blocks.Syms {
		if f := int32(p.Blocks[s].Fn); f != prev {
			out = append(out, f)
			prev = f
		}
	}
	return &Trace{Syms: out}
}

// TopN returns the set of the n most frequently occurring symbols, the
// popularity selection the paper applies before analysis ("selecting the
// 10,000 most frequently executed basic blocks"). Ties are broken toward
// smaller symbol IDs so the result is deterministic.
func (t *Trace) TopN(n int) map[int32]bool {
	counts := t.Counts()
	type sc struct {
		sym int32
		cnt int64
	}
	list := make([]sc, 0, len(counts))
	for sym, cnt := range counts {
		if cnt > 0 {
			list = append(list, sc{int32(sym), cnt})
		}
	}
	// Selection by sort: deterministic and simple; trace alphabets are
	// bounded by the program's block count.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0; j-- {
			a, b := list[j-1], list[j]
			if b.cnt > a.cnt || (b.cnt == a.cnt && b.sym < a.sym) {
				list[j-1], list[j] = b, a
			} else {
				break
			}
		}
	}
	if n > len(list) {
		n = len(list)
	}
	keep := make(map[int32]bool, n)
	for _, e := range list[:n] {
		keep[e.sym] = true
	}
	return keep
}

// Pruned returns a new trace containing only the occurrences of symbols
// for which keep returns true.
func (t *Trace) Pruned(keep func(int32) bool) *Trace {
	out := make([]int32, 0, len(t.Syms))
	for _, s := range t.Syms {
		if keep(s) {
			out = append(out, s)
		}
	}
	return &Trace{Syms: out}
}

// PruneTopN keeps only the occurrences of the n most popular symbols and
// reports the fraction of the original occurrences retained. The paper
// observes that top-10,000 pruning "typically keeps over 90% of the
// original trace".
func (t *Trace) PruneTopN(n int) (*Trace, float64) {
	keep := t.TopN(n)
	pruned := t.Pruned(func(s int32) bool { return keep[s] })
	if len(t.Syms) == 0 {
		return pruned, 1
	}
	return pruned, float64(len(pruned.Syms)) / float64(len(t.Syms))
}

// SampleStride returns a sub-trace consisting of windows of length
// windowLen taken every stride occurrences, the trace-sampling refinement
// mentioned in §II-F. stride must be >= windowLen.
func (t *Trace) SampleStride(windowLen, stride int) *Trace {
	if windowLen <= 0 || stride < windowLen {
		return &Trace{}
	}
	out := make([]int32, 0, len(t.Syms)/stride*windowLen+windowLen)
	for start := 0; start < len(t.Syms); start += stride {
		end := start + windowLen
		if end > len(t.Syms) {
			end = len(t.Syms)
		}
		out = append(out, t.Syms[start:end]...)
	}
	return &Trace{Syms: out}
}

// Concat appends other to a copy of t.
func (t *Trace) Concat(other *Trace) *Trace {
	out := make([]int32, 0, len(t.Syms)+len(other.Syms))
	out = append(out, t.Syms...)
	out = append(out, other.Syms...)
	return &Trace{Syms: out}
}
