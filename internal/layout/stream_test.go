package layout

import (
	"reflect"
	"testing"
)

// rangeLines expands Lap-form ranges into the lines they fetch.
func rangeLines(rs []LineRange) []int64 {
	var out []int64
	for _, r := range rs {
		first := r.First
		if first < 0 {
			first = ^first
		}
		for ln := first; ln <= r.Last; ln++ {
			out = append(out, int64(ln))
		}
	}
	return out
}

// TestStreamReplayerMatchesAppendLines: feeding the trace in chunks of
// any size must reproduce the buffered AppendLines fetch stream exactly,
// on both a stub-free and a stub-carrying layout (the latter exercises
// the cross-chunk stub rule and the held fall-through decision).
func TestStreamReplayerMatchesAppendLines(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		tr := parityTrace(300, len(l.Prog.Blocks))
		want, _ := NewReplayer(l, tr, 64, false).AppendLines(nil, tr.Len())
		for _, chunk := range []int{1, 2, 7, 64, 1024} {
			r := NewStreamReplayer(l, 64)
			var rs []LineRange
			syms := tr.Syms
			for len(syms) > 0 {
				c := chunk
				if c > len(syms) {
					c = len(syms)
				}
				rs = r.Feed(rs, syms[:c])
				syms = syms[c:]
			}
			got := rangeLines(r.Finish(rs))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s chunk=%d: streamed fetch stream diverges from AppendLines", name, chunk)
			}
			if r.Blocks() != int64(tr.Len()) {
				t.Fatalf("%s chunk=%d: replayed %d blocks, want %d", name, chunk, r.Blocks(), tr.Len())
			}
		}
	}
}

// TestStreamReplayerEmptyFeeds: empty chunks and an empty stream are
// no-ops, matching the buffered path on an empty trace.
func TestStreamReplayerEmptyFeeds(t *testing.T) {
	p := fig3Prog(t)
	r := NewStreamReplayer(Original(p), 64)
	if lines := rangeLines(r.Feed(nil, nil)); len(lines) != 0 {
		t.Fatalf("empty feed emitted %d lines", len(lines))
	}
	if lines := rangeLines(r.Finish(nil)); len(lines) != 0 {
		t.Fatalf("empty finish emitted %d lines", len(lines))
	}
	if r.Blocks() != 0 {
		t.Fatalf("empty stream counted %d blocks", r.Blocks())
	}
}

// TestStreamReplayerHoldsLastOccurrence: the final occurrence of each
// chunk must not emit until its successor is known — Feed of a single
// symbol emits nothing, Finish flushes it.
func TestStreamReplayerHoldsLastOccurrence(t *testing.T) {
	l := replayerParityLayouts(t)["reversed"]
	r := NewStreamReplayer(l, 64)
	if lines := rangeLines(r.Feed(nil, []int32{0})); len(lines) != 0 {
		t.Fatalf("held occurrence emitted %d lines early", len(lines))
	}
	if r.Blocks() != 0 {
		t.Fatal("held occurrence counted early")
	}
	if lines := rangeLines(r.Finish(nil)); len(lines) == 0 {
		t.Fatal("finish emitted nothing for the held occurrence")
	}
	if r.Blocks() != 1 {
		t.Fatalf("finished stream counted %d blocks, want 1", r.Blocks())
	}
}

// TestStreamReplayerMatchesResolve: at every chunk size the fed ranges
// are exactly the resolved lap's, stub marks included.
func TestStreamReplayerMatchesResolve(t *testing.T) {
	for name, l := range replayerParityLayouts(t) {
		tr := parityTrace(300, len(l.Prog.Blocks))
		want := Stream{Layout: l, Trace: tr, LineBytes: 64}.Resolve().Ranges
		for _, chunk := range []int{1, 2, 7, 1024} {
			r := NewStreamReplayer(l, 64)
			var got []LineRange
			for syms := tr.Syms; len(syms) > 0; {
				c := min(chunk, len(syms))
				got = r.Feed(got, syms[:c])
				syms = syms[c:]
			}
			if got = r.Finish(got); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s chunk=%d: fed ranges diverge from the resolved lap", name, chunk)
			}
		}
	}
}
