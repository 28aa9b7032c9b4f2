package layout

import (
	"fmt"
	"reflect"
	"testing"

	"codelayout/internal/ir"
	"codelayout/internal/trace"
)

// replayAllNext drains up to maxBlocks occurrences through the Next
// callback path and returns the emitted lines.
func replayAllNext(r *Replayer, maxBlocks int) []int64 {
	var lines []int64
	for i := 0; i < maxBlocks; i++ {
		if _, ok := r.Next(func(ln int64) { lines = append(lines, ln) }); !ok {
			break
		}
	}
	return lines
}

// replayerParityLayouts returns the layouts the parity tests replay
// against: the stub-free original and a reversed block layout that
// carries stubs, appended jumps and displaced fall-throughs.
func replayerParityLayouts(t *testing.T) map[string]*Layout {
	t.Helper()
	p := fig3Prog(t)
	var rev []ir.BlockID
	for b := p.NumBlocks() - 1; b >= 0; b-- {
		rev = append(rev, ir.BlockID(b))
	}
	return map[string]*Layout{
		"original": Original(p),
		"reversed": ReorderBlocks(p, rev),
	}
}

// parityTrace is a fixed pseudo-random block sequence covering calls,
// branches and repeats; parity holds for any sequence because both paths
// apply the same per-occurrence rules.
func parityTrace(n, numBlocks int) *trace.Trace {
	syms := make([]int32, n)
	state := uint32(12345)
	for i := range syms {
		state = state*1664525 + 1013904223
		syms[i] = int32(state % uint32(numBlocks))
	}
	return trace.New(syms)
}

func TestAppendLinesMatchesNext(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		tr := parityTrace(300, len(l.Prog.Blocks))
		want := replayAllNext(NewReplayer(l, tr, 64, false), tr.Len())
		for _, batch := range []int{1, 7, 64, 1024} {
			r := NewReplayer(l, tr, 64, false)
			var got []int64
			total := 0
			for {
				lines, blocks := r.AppendLines(nil, batch)
				if blocks == 0 {
					break
				}
				got = append(got, lines...)
				total += blocks
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s batch=%d: AppendLines stream diverges from Next", name, batch)
			}
			if total != tr.Len() {
				t.Fatalf("%s batch=%d: replayed %d blocks, want %d", name, batch, total, tr.Len())
			}
			if !r.Done() {
				t.Fatalf("%s batch=%d: replayer not done", name, batch)
			}
		}
	}
}

func TestAppendLinesMatchesNextWrapping(t *testing.T) {
	const occurrences = 1000
	for name, l := range replayerParityLayouts(t) {
		tr := parityTrace(37, len(l.Prog.Blocks)) // short trace forces many laps
		rNext := NewReplayer(l, tr, 64, true)
		want := replayAllNext(rNext, occurrences)

		r := NewReplayer(l, tr, 64, true)
		var got []int64
		for replayed := 0; replayed < occurrences; {
			batch := 13
			if rest := occurrences - replayed; rest < batch {
				batch = rest
			}
			lines, blocks := r.AppendLines(nil, batch)
			got = append(got, lines...)
			replayed += blocks
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: wrapping AppendLines stream diverges from Next", name)
		}
		if r.Laps() != rNext.Laps() {
			t.Fatalf("%s: laps = %d, want %d", name, r.Laps(), rNext.Laps())
		}
	}
}

func TestAppendLinesEmptyTrace(t *testing.T) {
	p := fig3Prog(t)
	r := NewReplayer(Original(p), trace.New(nil), 64, true)
	lines, blocks := r.AppendLines(nil, 8)
	if blocks != 0 || len(lines) != 0 {
		t.Fatalf("empty trace replayed %d blocks, %d lines", blocks, len(lines))
	}
}

// TestAppendLinesMixedWithNext interleaves the two paths on one replayer:
// the shared cursor state (pos, prev, laps) must stay consistent.
func TestAppendLinesMixedWithNext(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		tr := parityTrace(200, len(l.Prog.Blocks))
		want := replayAllNext(NewReplayer(l, tr, 64, false), tr.Len())

		r := NewReplayer(l, tr, 64, false)
		var got []int64
		for {
			lines, blocks := r.AppendLines(nil, 9)
			got = append(got, lines...)
			if blocks == 0 {
				break
			}
			if _, ok := r.Next(func(ln int64) { got = append(got, ln) }); !ok {
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mixed Next/AppendLines stream diverges", name)
		}
	}
}

// lapOccurrence returns occurrence k's lines from a resolved lap, stub
// range first, as AppendLines orders them; a wrapping replay takes the
// final occurrence's block range in its wrapping form.
func lapOccurrence(lap *Lap, k int, wrap bool) []int64 {
	var lines []int64
	i := lap.RangeIndex(k)
	if r := lap.Ranges[i]; r.First < 0 {
		for ln := ^r.First; ln <= r.Last; ln++ {
			lines = append(lines, int64(ln))
		}
		i++
	}
	r := lap.Ranges[i]
	last := r.Last
	if wrap && k == lap.Occurrences-1 {
		last = lap.WrapLast
	}
	for ln := r.First; ln <= last; ln++ {
		lines = append(lines, int64(ln))
	}
	return lines
}

// checkResolveMatchesAppendLines requires every occurrence of three laps
// of tr (one for a non-wrapping replayer) to fetch from the resolved lap
// exactly the lines AppendLines(buf, 1) emits, and the lap's line count
// and line trace to match the non-wrapping stream.
func checkResolveMatchesAppendLines(t *testing.T, name string, l *Layout, tr *trace.Trace, lineBytes int) {
	t.Helper()
	lap := Stream{Layout: l, Trace: tr, LineBytes: lineBytes}.Resolve()
	if lap.Occurrences != tr.Len() {
		t.Fatalf("%s: lap holds %d occurrences, trace %d", name, lap.Occurrences, tr.Len())
	}
	for _, wrap := range []bool{false, true} {
		r := NewReplayer(l, tr, lineBytes, wrap)
		laps := 1
		if wrap {
			laps = 3
		}
		var stream []int64
		for k := 0; k < laps*tr.Len(); k++ {
			want, blocks := r.AppendLines(nil, 1)
			if blocks != 1 {
				t.Fatalf("%s wrap=%v: AppendLines ended at occurrence %d", name, wrap, k)
			}
			if got := lapOccurrence(lap, k%tr.Len(), wrap); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s wrap=%v occurrence %d: lap %v, AppendLines %v", name, wrap, k, got, want)
			}
			if k < tr.Len() && !wrap {
				stream = append(stream, want...)
			}
		}
		if wrap {
			continue
		}
		if _, blocks := r.AppendLines(nil, 1); blocks != 0 {
			t.Fatalf("%s: non-wrapping replayer ran past the lap", name)
		}
		if lap.Lines != len(stream) {
			t.Fatalf("%s: lap counts %d lines, stream has %d", name, lap.Lines, len(stream))
		}
		got := lap.LineTrace()
		if len(got) != len(stream) || cap(got) != lap.Lines {
			t.Fatalf("%s: line trace len %d cap %d, want %d", name, len(got), cap(got), len(stream))
		}
		for i := range got {
			if int64(got[i]) != stream[i] {
				t.Fatalf("%s: line trace diverges at %d", name, i)
			}
		}
	}
}

// TestResolveMatchesAppendLines: a resolved lap replays exactly the
// AppendLines fetch stream, occurrence by occurrence, with and without
// wrap, over the parity layouts and short, empty and single-occurrence
// traces.
func TestResolveMatchesAppendLines(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		for _, n := range []int{1, 2, 37, 300} {
			checkResolveMatchesAppendLines(t, name, l, parityTrace(n, len(l.Prog.Blocks)), 64)
		}
		checkResolveMatchesAppendLines(t, name+" 4-byte lines", l, parityTrace(37, len(l.Prog.Blocks)), 4)
		lap := Stream{Layout: l, Trace: trace.New(nil), LineBytes: 64}.Resolve()
		if lap.Occurrences != 0 || len(lap.Ranges) != 0 || lap.Lines != 0 || len(lap.LineTrace()) != 0 {
			t.Fatalf("%s: empty trace resolved to %+v", name, lap)
		}
	}
	// A last occurrence whose displaced fall-through is the trace's
	// first block: its appended jump runs only when the replayer wraps.
	// 4-byte lines make the jump's bytes show in the line stream.
	l := replayerParityLayouts(t)["reversed"]
	found := false
	for b, blk := range l.Prog.Blocks {
		br, isBranch := blk.Term.(ir.Branch)
		if !isBranch || l.Size[b] == blk.Size {
			continue
		}
		found = true
		tr := trace.New([]int32{int32(br.Fall), int32(br.Taken), int32(b)})
		checkResolveMatchesAppendLines(t, fmt.Sprintf("block %d", b), l, tr, 4)
		lap := Stream{Layout: l, Trace: tr, LineBytes: 4}.Resolve()
		if lap.WrapLast == lap.Ranges[len(lap.Ranges)-1].Last {
			t.Fatalf("block %d: the wrapping form fetches no more than the trace end's", b)
		}
	}
	if !found {
		t.Fatal("the reversed layout displaced no branch fall-through")
	}
}

// TestSkipMatchesAppendLines: Skip leaves the cursor, laps and the
// stub rule's previous block where AppendLines would, for skips within
// a lap, across several laps and past a non-wrapping end.
func TestSkipMatchesAppendLines(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		tr := parityTrace(37, len(l.Prog.Blocks))
		for _, wrap := range []bool{false, true} {
			for _, steps := range [][]int{{5}, {37}, {36, 1, 1}, {100}, {3, 74}, {0, 38}} {
				ref := NewReplayer(l, tr, 64, wrap)
				r := NewReplayer(l, tr, 64, wrap)
				for _, n := range steps {
					_, want := ref.AppendLines(nil, n)
					if got := r.Skip(n); got != want {
						t.Fatalf("%s wrap=%v %v: skipped %d, AppendLines replayed %d", name, wrap, steps, got, want)
					}
				}
				if r.Pos() != ref.Pos() || r.Laps() != ref.Laps() || r.Done() != ref.Done() {
					t.Fatalf("%s wrap=%v %v: cursor (pos %d, laps %d), AppendLines (pos %d, laps %d)",
						name, wrap, steps, r.Pos(), r.Laps(), ref.Pos(), ref.Laps())
				}
				// The next occurrence depends on the previous block.
				want, _ := ref.AppendLines(nil, 5)
				if got, _ := r.AppendLines(nil, 5); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s wrap=%v %v: stream after Skip diverges", name, wrap, steps)
				}
			}
		}
	}
}
