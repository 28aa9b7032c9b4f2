package layout

import (
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

// replayAllStep drains up to maxBlocks occurrences through Step and
// returns the fetched lines, stub range first, as AppendLines orders
// them.
func replayAllStep(r *Replayer, maxBlocks int) []int64 {
	var lines []int64
	for i := 0; i < maxBlocks; i++ {
		sf, sl, first, last, ok := r.Step()
		if !ok {
			break
		}
		for ln := sf; ln <= sl; ln++ {
			lines = append(lines, ln)
		}
		for ln := first; ln <= last; ln++ {
			lines = append(lines, ln)
		}
	}
	return lines
}

// TestStepMatchesAppendLines: stepping one occurrence at a time yields
// the AppendLines fetch stream, cursor and laps, with and without wrap;
// mixing the two paths on one replayer keeps the shared cursor
// consistent.
func TestStepMatchesAppendLines(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		for _, wrap := range []bool{false, true} {
			tr := parityTrace(37, len(l.Prog.Blocks))
			const occurrences = 496 // a multiple of the mixed loop's 8
			ref := NewReplayer(l, tr, 64, wrap)
			want, _ := ref.AppendLines(nil, occurrences)
			r := NewReplayer(l, tr, 64, wrap)
			if got := replayAllStep(r, occurrences); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s wrap=%v: stepped stream diverges from AppendLines", name, wrap)
			}
			if r.Laps() != ref.Laps() || r.Pos() != ref.Pos() || r.Done() != ref.Done() {
				t.Fatalf("%s wrap=%v: cursor (laps %d, pos %d) vs (laps %d, pos %d)",
					name, wrap, r.Laps(), r.Pos(), ref.Laps(), ref.Pos())
			}

			mixed := NewReplayer(l, tr, 64, wrap)
			var got []int64
			for replayed := 0; replayed < occurrences; replayed += 8 {
				got, _ = mixed.AppendLines(got, 5)
				got = append(got, replayAllStep(mixed, 3)...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s wrap=%v: mixed Step/AppendLines stream diverges", name, wrap)
			}
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
		for _, wrap := range []bool{false, true} {
			want, _ := NewReplayer(l, tr, 4, wrap).AppendLines(nil, 7)
			if got := replayAllStep(NewReplayer(l, tr, 4, wrap), 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d wrap=%v: stepped stream %v, AppendLines %v", b, wrap, got, want)
			}
		}
	}
	if !found {
		t.Fatal("the reversed layout displaced no branch fall-through")
	}
	r := NewReplayer(Original(fig3Prog(t)), trace.New(nil), 64, true)
	if _, _, _, _, ok := r.Step(); ok {
		t.Fatal("Step on an empty wrapping trace reported an occurrence")
	}
}
