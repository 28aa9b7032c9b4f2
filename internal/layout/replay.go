package layout

import (
	"codelayout/internal/ir"
	"codelayout/internal/trace"
)

// Replayer turns an executed basic-block trace into the instruction
// fetch stream of a concrete layout: for each block occurrence it emits
// the cache lines covering the block's address range (plus the entry
// stub's line on calls into stub-carrying layouts). Replaying the same
// block trace through two layouts is exactly how the paper compares an
// optimized binary against the original — the executed blocks are
// identical, only their addresses differ.
type Replayer struct {
	l         *Layout
	t         *trace.Trace
	lineBytes int64
	pos       int
	// Wrap restarts the trace when exhausted, so a co-run peer keeps
	// generating interference until the primary program finishes (the
	// usual co-run measurement methodology).
	wrap bool
	laps int
	// isCall[b] marks blocks that end in a call; the callee's entry
	// fetch then goes through the stub.
	prev ir.BlockID
	// plan is the lazily built per-block line pre-resolution used by the
	// batched AppendLines fast path.
	plan *replayPlan
}

// NewReplayer creates a replayer over the given block trace.
func NewReplayer(l *Layout, t *trace.Trace, lineBytes int, wrap bool) *Replayer {
	return &Replayer{l: l, t: t, lineBytes: int64(lineBytes), wrap: wrap, prev: ir.NoBlock}
}

// Done reports whether a non-wrapping replayer has exhausted its trace.
func (r *Replayer) Done() bool { return !r.wrap && r.pos >= r.t.Len() }

// Laps returns how many times a wrapping replayer restarted the trace.
func (r *Replayer) Laps() int { return r.laps }

// Pos returns the number of block occurrences consumed in the current
// lap.
func (r *Replayer) Pos() int { return r.pos }

// Wraps reports whether the replayer restarts its trace when exhausted.
func (r *Replayer) Wraps() bool { return r.wrap }

// Stream returns the fetch stream the replayer replays.
func (r *Replayer) Stream() Stream {
	return Stream{Layout: r.l, Trace: r.t, LineBytes: int(r.lineBytes)}
}

// Skip moves the cursor past n block occurrences without emitting their
// lines, leaving it (laps included) where AppendLines(dst, n) would. It
// returns the number skipped, fewer than n only at a non-wrapping trace
// end. A caller that replays a Stream's resolved Lap itself uses it to
// keep the replayer's cursor in step.
func (r *Replayer) Skip(n int) int {
	total := len(r.t.Syms)
	if n <= 0 || total == 0 {
		return 0
	}
	if left := total - r.pos; n <= left || !r.wrap {
		n = min(n, left)
		if n > 0 {
			r.pos += n
			r.prev = ir.BlockID(r.t.Syms[r.pos-1])
		}
		return n
	}
	// AppendLines wraps lazily, when an occurrence past the trace end is
	// asked for, so the cursor lands in (0, total].
	past := n - (total - r.pos)
	wraps := (past + total - 1) / total
	r.laps += wraps
	r.pos = past - (wraps-1)*total
	r.prev = ir.BlockID(r.t.Syms[r.pos-1])
	return n
}

// Next replays one block occurrence: it calls emit for every cache line
// fetched and returns the fetched instruction bytes. ok is false when a
// non-wrapping replayer is exhausted.
func (r *Replayer) Next(emit func(line int64)) (bytes int32, ok bool) {
	if r.pos >= r.t.Len() {
		if !r.wrap || r.t.Len() == 0 {
			return 0, false
		}
		r.pos = 0
		r.laps++
		r.prev = ir.NoBlock
	}
	b := ir.BlockID(r.t.Syms[r.pos])
	r.pos++

	blk := r.l.Prog.Blocks[b]
	// A call into a stub-carrying layout fetches the stub jump first.
	if r.l.HasStubs() && r.prev != ir.NoBlock {
		if c, isCall := r.l.Prog.Blocks[r.prev].Term.(ir.Call); isCall && c.Callee == blk.Fn && r.l.Prog.Entry(blk.Fn) == b {
			stub := r.l.StubAddr[blk.Fn]
			first := stub / r.lineBytes
			last := (stub + JumpBytes - 1) / r.lineBytes
			for ln := first; ln <= last; ln++ {
				emit(ln)
			}
			bytes += JumpBytes
		}
	}
	addr := r.l.Addr[b]
	size := int64(r.effectiveSize(b))
	first := addr / r.lineBytes
	last := (addr + size - 1) / r.lineBytes
	for ln := first; ln <= last; ln++ {
		emit(ln)
	}
	bytes += int32(size)
	r.prev = b
	return bytes, true
}

// effectiveSize returns the bytes this occurrence of block b fetches and
// executes. A layout-appended jump (Size[b] > Block.Size) only executes
// on the path it patches: for a Branch it covers the displaced
// fall-through, so it runs only when the trace actually goes to the
// fall successor; for a Call it forwards the return point to the moved
// continuation, so it runs on every execution.
func (r *Replayer) effectiveSize(b ir.BlockID) int32 {
	blk := r.l.Prog.Blocks[b]
	full := r.l.Size[b]
	if full == blk.Size {
		return full
	}
	br, isBranch := blk.Term.(ir.Branch)
	if !isBranch {
		return full
	}
	if next := r.peek(); next == br.Fall {
		return full
	}
	return blk.Size
}

// peek returns the next block in the trace (accounting for wrap), or
// ir.NoBlock at a non-wrapping end.
func (r *Replayer) peek() ir.BlockID {
	if r.pos < r.t.Len() {
		return ir.BlockID(r.t.Syms[r.pos])
	}
	if r.wrap && r.t.Len() > 0 {
		return ir.BlockID(r.t.Syms[0])
	}
	return ir.NoBlock
}

// replayPlan pre-resolves each block's fetched line range (and each
// function's stub lines) against a fixed layout, so the batched replay
// path can emit lines with array lookups only — no map access, interface
// assertion or closure dispatch per occurrence. Built once per Replayer
// on first use; the layout is immutable afterwards by contract.
type replayPlan struct {
	// lineFirst/lastFull bound block b's fetched lines at its full layout
	// size (including any appended jump); lastShort bounds them at the
	// block's own size. Which bound applies per occurrence depends on
	// fall.
	lineFirst []int64
	lastFull  []int64
	lastShort []int64
	// fall is the displaced fall-through successor when block b carries a
	// layout-appended jump patching a Branch (the jump executes only when
	// the trace actually falls through); ir.NoBlock means the full size
	// always applies.
	fall []ir.BlockID
	// callCallee is block b's call target function, or -1 when b does not
	// end in a call.
	callCallee []ir.FuncID
	// entryFn is b's function when b is that function's entry block, else
	// -1: a stub fetch happens exactly when the previous block calls
	// entryFn[b].
	entryFn []ir.FuncID
	// stubFirst/stubLast bound function f's entry-stub lines; hasStubs
	// is false for a stub-free layout, whose calls fetch no stub.
	stubFirst []int64
	stubLast  []int64
	hasStubs  bool
}

func buildReplayPlan(l *Layout, lineBytes int64) *replayPlan {
	nb := len(l.Prog.Blocks)
	p := &replayPlan{
		lineFirst:  make([]int64, nb),
		lastFull:   make([]int64, nb),
		lastShort:  make([]int64, nb),
		fall:       make([]ir.BlockID, nb),
		callCallee: make([]ir.FuncID, nb),
		entryFn:    make([]ir.FuncID, nb),
	}
	for b := range l.Prog.Blocks {
		blk := l.Prog.Blocks[b]
		addr := l.Addr[b]
		p.lineFirst[b] = addr / lineBytes
		p.lastFull[b] = (addr + int64(l.Size[b]) - 1) / lineBytes
		p.lastShort[b] = (addr + int64(blk.Size) - 1) / lineBytes
		p.fall[b] = ir.NoBlock
		if br, isBranch := blk.Term.(ir.Branch); isBranch && l.Size[b] != blk.Size {
			p.fall[b] = br.Fall
		}
		p.callCallee[b] = -1
		if c, isCall := blk.Term.(ir.Call); isCall {
			p.callCallee[b] = c.Callee
		}
		p.entryFn[b] = -1
		if l.Prog.Entry(blk.Fn) == ir.BlockID(b) {
			p.entryFn[b] = blk.Fn
		}
	}
	if p.hasStubs = l.HasStubs(); p.hasStubs {
		nf := len(l.StubAddr)
		p.stubFirst = make([]int64, nf)
		p.stubLast = make([]int64, nf)
		for f, stub := range l.StubAddr {
			if stub < 0 {
				continue
			}
			p.stubFirst[f] = stub / lineBytes
			p.stubLast[f] = (stub + JumpBytes - 1) / lineBytes
		}
	}
	return p
}

// AppendLines replays up to maxBlocks block occurrences, appending every
// fetched cache line to dst, and returns the extended slice plus the
// number of occurrences replayed (0 when a non-wrapping replayer is
// exhausted). It is the batched form of Next — identical fetch stream,
// but lines come from the pre-resolved plan and land in a reusable
// buffer, so the cache simulation pays no per-access closure dispatch.
func (r *Replayer) AppendLines(dst []int64, maxBlocks int) ([]int64, int) {
	if r.plan == nil {
		r.plan = buildReplayPlan(r.l, r.lineBytes)
	}
	p := r.plan
	syms := r.t.Syms
	n := len(syms)
	hasStubs := p.hasStubs
	pos, prev := r.pos, r.prev
	blocks := 0
	for blocks < maxBlocks {
		if pos >= n {
			if !r.wrap || n == 0 {
				break
			}
			pos = 0
			r.laps++
			prev = ir.NoBlock
		}
		b := ir.BlockID(syms[pos])
		pos++
		if hasStubs && prev != ir.NoBlock {
			if fn := p.entryFn[b]; fn >= 0 && p.callCallee[prev] == fn {
				for ln := p.stubFirst[fn]; ln <= p.stubLast[fn]; ln++ {
					dst = append(dst, ln)
				}
			}
		}
		last := p.lastFull[b]
		if f := p.fall[b]; f != ir.NoBlock {
			// The appended jump executes only when the trace goes to the
			// displaced fall-through (same rule as effectiveSize).
			next := ir.NoBlock
			if pos < n {
				next = ir.BlockID(syms[pos])
			} else if r.wrap && n > 0 {
				next = ir.BlockID(syms[0])
			}
			if next != f {
				last = p.lastShort[b]
			}
		}
		for ln := p.lineFirst[b]; ln <= last; ln++ {
			dst = append(dst, ln)
		}
		prev = b
		blocks++
	}
	r.pos, r.prev = pos, prev
	return dst, blocks
}

// Stream names one fetch stream: a layout replaying a block trace at a
// line size. It is comparable, so callers that replay one stream in
// several simulations can resolve it once.
type Stream struct {
	Layout    *Layout
	Trace     *trace.Trace
	LineBytes int
}

// LineRange is an inclusive run of cache lines [First, Last] fetched
// by one block occurrence. In a Lap, an entry stub's range is stored
// with First complemented (^first, always negative) so that it is told
// apart from a block's range without a flag word.
type LineRange struct{ First, Last int32 }

// Lap is one lap of a Stream resolved to per-occurrence line ranges:
// the whole fetch stream at 8 bytes per range, for replays that walk
// the same stream many times or interleave it one occurrence at a time
// with another. The rules are those of AppendLines, applied once.
type Lap struct {
	// Ranges holds the lap in replay order. An occurrence that calls
	// into a stub-carrying layout's function entry contributes its stub
	// range (First complemented) and then its block range; every other
	// occurrence contributes its block range alone. The final
	// occurrence's block range has its non-wrapping form.
	Ranges []LineRange
	// WrapLast is the final occurrence's block Last when the replay
	// wraps: its successor is then the lap's first occurrence, which the
	// appended-jump rule may treat differently from the trace end. The
	// first occurrence of a lap never fetches a stub, so every other
	// range is the same on every lap.
	WrapLast int32
	// Occurrences is the number of block occurrences in the lap; Lines
	// the number of lines the non-wrapping lap fetches.
	Occurrences int
	Lines       int
}

// Resolve replays one lap of the stream into a Lap. Lines are stored
// as int32: it panics if the layout reaches past math.MaxInt32 lines
// (2 GiB of code at 1-byte lines), which no suite program approaches.
func (s Stream) Resolve() *Lap {
	r := NewStreamReplayer(s.Layout, s.LineBytes)
	p := r.plan
	syms := s.Trace.Syms
	n := len(syms)
	lap := &Lap{Occurrences: n}
	if n == 0 {
		return lap
	}
	stubs := 0
	if p.hasStubs {
		for i := 1; i < n; i++ {
			if fn := p.entryFn[syms[i]]; fn >= 0 && p.callCallee[syms[i-1]] == fn {
				stubs++
			}
		}
	}
	lap.Ranges = r.Finish(r.Feed(make([]LineRange, 0, n+stubs), syms))
	lap.Lines = int(r.lines)
	lap.WrapLast = int32(p.blockLast(ir.BlockID(syms[n-1]), ir.BlockID(syms[0])))
	return lap
}

// RangeIndex returns the index in Ranges of occurrence k's first range
// (len(Ranges) for k = Occurrences), for a replay that starts mid-lap.
func (l *Lap) RangeIndex(k int) int {
	if k >= l.Occurrences {
		return len(l.Ranges)
	}
	i := 0
	for ; k > 0; i++ {
		if l.Ranges[i].First >= 0 {
			k--
		}
	}
	return i
}

// LineTrace returns the lines the non-wrapping lap fetches, in order,
// in a slice of exactly Lines entries: the footprint model's input.
func (l *Lap) LineTrace() []int32 {
	out := make([]int32, 0, l.Lines)
	for _, r := range l.Ranges {
		first := r.First
		if first < 0 {
			first = ^first
		}
		for ln := first; ln <= r.Last; ln++ {
			out = append(out, ln)
		}
	}
	return out
}

// blockLast returns the last line an occurrence of b fetches when the
// trace goes on to next (ir.NoBlock at a non-wrapping end): the
// appended jump executes only when the trace goes to the displaced
// fall-through (same rule as effectiveSize).
func (p *replayPlan) blockLast(b, next ir.BlockID) int64 {
	if f := p.fall[b]; f != ir.NoBlock && next != f {
		return p.lastShort[b]
	}
	return p.lastFull[b]
}

// maxLine returns the highest line any occurrence can fetch.
func (p *replayPlan) maxLine() int64 {
	top := int64(0)
	for _, ln := range p.lastFull {
		top = max(top, ln)
	}
	for _, ln := range p.stubLast {
		top = max(top, ln)
	}
	return top
}
