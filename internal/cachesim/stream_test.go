package cachesim

import (
	"reflect"
	"testing"

	"codelayout/internal/ir"
	"codelayout/internal/layout"
)

// TestSoloStreamMatchesSimulateSolo: feeding the block trace chunk by
// chunk must produce a SoloResult identical to the buffered
// SimulateSolo, on both the stub-free original layout and a reversed
// layout carrying stubs and appended jumps (the stream's held-symbol
// logic must agree with the buffered fall-through and stub rules at
// every chunk boundary), under every geometry the co-run oracle test
// replays and at 4-byte lines.
func TestSoloStreamMatchesSimulateSolo(t *testing.T) {
	p := loopProgram(t, 320, 64, 30)
	var rev []ir.BlockID
	for b := p.NumBlocks() - 1; b >= 0; b-- {
		rev = append(rev, ir.BlockID(b))
	}
	layouts := map[string]*layout.Layout{
		"original": layout.Original(p),
		"reversed": layout.ReorderBlocks(p, rev),
	}
	geometries := []Config{
		L1IDefault,
		// 96 sets: not a power of two, so sets come from a modulus.
		{SizeBytes: 24 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 4 << 10, Assoc: 1, LineBytes: 64},   // direct-mapped
		{SizeBytes: 32 << 10, Assoc: 16, LineBytes: 64}, // 16-way
		{SizeBytes: 2 << 10, Assoc: 2, LineBytes: 32},   // small 2-way
		{SizeBytes: 8 << 10, Assoc: 4, LineBytes: 4},    // a block spans 16 lines
	}
	tr := runTrace(t, p)
	for _, cfg := range geometries {
		for name, l := range layouts {
			want := SimulateSolo(cfg, layout.NewReplayer(l, tr, cfg.LineBytes, false))
			if want.Blocks == 0 || want.Stats.Accesses == 0 {
				t.Fatalf("%s %+v: degenerate buffered result %+v", name, cfg, want)
			}
			for _, chunk := range []int{1, 37, 1024, tr.Len()} {
				s := NewSoloStream(cfg, l)
				syms := tr.Syms
				for len(syms) > 0 {
					c := chunk
					if c > len(syms) {
						c = len(syms)
					}
					s.Feed(syms[:c])
					syms = syms[c:]
				}
				got := s.Finish()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v chunk=%d: streamed %+v != buffered %+v", name, cfg, chunk, got, want)
				}
			}
		}
	}
}

// TestSoloStreamEmpty: finishing with no chunks matches the buffered
// simulation of an empty trace.
func TestSoloStreamEmpty(t *testing.T) {
	p := loopProgram(t, 16, 64, 10)
	s := NewSoloStream(L1IDefault, layout.Original(p))
	res := s.Finish()
	if res.Blocks != 0 || res.Stats.Accesses != 0 {
		t.Fatalf("empty stream result %+v", res)
	}
}
