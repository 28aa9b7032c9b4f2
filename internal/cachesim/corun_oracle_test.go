package cachesim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/trace"
)

// simulateCorunAppendLines is the oracle co-run kernel, the one the
// package ran before it replayed resolved laps: each turn pulls one
// block occurrence per thread through AppendLines(buf, 1).
func simulateCorunAppendLines(cfg cachesim.Config, primary, peer *layout.Replayer) cachesim.CorunResult {
	c := cachesim.New(cfg)
	var res cachesim.CorunResult
	var pbuf, qbuf []int64
	for {
		lines, blocks := primary.AppendLines(pbuf[:0], 1)
		if blocks == 0 {
			break
		}
		pbuf = lines[:0]
		for _, ln := range lines {
			c.Access(ln, &res.PerThread[0])
		}
		res.Blocks[0]++
		lines, blocks = peer.AppendLines(qbuf[:0], 1)
		qbuf = lines[:0]
		for _, ln := range lines {
			c.Access(ln+cachesim.PeerLineOffset, &res.PerThread[1])
		}
		if blocks > 0 {
			res.Blocks[1]++
		}
	}
	res.PeerLaps = peer.Laps()
	return res
}

// corunSide is one thread of a co-run: a layout replaying a trace.
type corunSide struct {
	l  *layout.Layout
	tr *trace.Trace
}

// checkCorunMatchesOracle runs the lap kernel and the AppendLines
// oracle on fresh replayers and requires equal results and equal peer
// laps.
func checkCorunMatchesOracle(t *testing.T, name string, cfg cachesim.Config, primary, peer corunSide) {
	t.Helper()
	wantPeer := layout.NewReplayer(peer.l, peer.tr, cfg.LineBytes, true)
	want := simulateCorunAppendLines(cfg, layout.NewReplayer(primary.l, primary.tr, cfg.LineBytes, false), wantPeer)
	gotPeer := layout.NewReplayer(peer.l, peer.tr, cfg.LineBytes, true)
	got := cachesim.SimulateCorun(cfg, layout.NewReplayer(primary.l, primary.tr, cfg.LineBytes, false), gotPeer)
	if got != want {
		t.Fatalf("%s: lap kernel %+v, oracle %+v", name, got, want)
	}
	if gotPeer.Laps() != wantPeer.Laps() {
		t.Fatalf("%s: peer replayer laps %d, oracle %d", name, gotPeer.Laps(), wantPeer.Laps())
	}
}

// shuffledLayout reorders p's blocks at random: most blocks lose their
// fall-through neighbour, so the layout carries entry stubs, appended
// jumps and displaced fall-throughs.
func shuffledLayout(p *ir.Program, rng *rand.Rand) *layout.Layout {
	order := make([]ir.BlockID, p.NumBlocks())
	for i, b := range rng.Perm(p.NumBlocks()) {
		order[i] = ir.BlockID(b)
	}
	return layout.ReorderBlocks(p, order)
}

// randomTrace draws n block occurrences of p; the replay rules are per
// occurrence, so any sequence exercises them.
func randomTrace(p *ir.Program, n int, rng *rand.Rand) *trace.Trace {
	syms := make([]int32, n)
	for i := range syms {
		syms[i] = int32(rng.Intn(p.NumBlocks()))
	}
	return trace.New(syms)
}

// TestSimulateCorunMatchesAppendLinesOracle: the lap co-run kernel
// replays exactly the fetch streams the AppendLines-driven kernel did,
// on suite layouts (baseline and optimized) and on small random layouts
// with stubs and appended jumps, with primaries shorter and longer than
// their peers, empty and single-occurrence traces, and a last
// occurrence whose displaced fall-through is the trace's first block.
func TestSimulateCorunMatchesAppendLinesOracle(t *testing.T) {
	small := cachesim.Config{SizeBytes: 2 << 10, Assoc: 2, LineBytes: 32}
	geometries := []cachesim.Config{
		cachesim.L1IDefault,
		small,
		// 96 sets: not a power of two, so sets come from a modulus and
		// PeerLineOffset moves the peer's lines 64 sets over.
		{SizeBytes: 24 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 4 << 10, Assoc: 1, LineBytes: 64},   // direct-mapped
		{SizeBytes: 32 << 10, Assoc: 16, LineBytes: 64}, // 16-way
	}

	t.Run("suite", func(t *testing.T) {
		var sides []corunSide
		for _, name := range []string{"429.mcf", "458.sjeng"} {
			p, err := core.LoadProgram(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := core.ProfileProgram(p, core.TrainSeed)
			if err != nil {
				t.Fatal(err)
			}
			tr := prof.Blocks.Trimmed()
			sides = append(sides, corunSide{layout.Original(p), tr})
			for _, o := range []core.Optimizer{core.FuncAffinity(), core.BBAffinity()} {
				l, _, err := o.Optimize(prof)
				if err != nil {
					t.Fatalf("%s %s: %v", name, o.Name(), err)
				}
				sides = append(sides, corunSide{l, tr})
			}
		}
		// Each side against the next: the programs' traces differ in
		// length, so both a shorter and a longer primary occur.
		for i := range sides {
			checkCorunMatchesOracle(t, "suite", cachesim.L1IDefault, sides[i], sides[(i+1)%len(sides)])
		}
		checkCorunMatchesOracle(t, "suite small cache", small, sides[2], sides[5])
	})

	t.Run("random", func(t *testing.T) {
		p, err := core.LoadProgram("429.mcf")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(19))
		for i := 0; i < 40; i++ {
			a := corunSide{shuffledLayout(p, rng), randomTrace(p, 1+rng.Intn(3000), rng)}
			b := corunSide{shuffledLayout(p, rng), randomTrace(p, 1+rng.Intn(3000), rng)}
			if i%4 == 0 {
				b.l = layout.Original(p)
			}
			for _, cfg := range geometries {
				checkCorunMatchesOracle(t, "random", cfg, a, b)
				checkCorunMatchesOracle(t, "random swapped", cfg, b, a)
			}
		}
	})

	// Replayers already part-way through their traces: the kernel starts
	// from their cursors and leaves both where the oracle leaves them.
	t.Run("cursors", func(t *testing.T) {
		p, err := core.LoadProgram("429.mcf")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 12; i++ {
			a := corunSide{shuffledLayout(p, rng), randomTrace(p, 1+rng.Intn(800), rng)}
			b := corunSide{shuffledLayout(p, rng), randomTrace(p, 1+rng.Intn(800), rng)}
			skipA, skipB := rng.Intn(a.tr.Len()+1), rng.Intn(3*b.tr.Len())
			cfg := geometries[i%len(geometries)]
			mk := func() (*layout.Replayer, *layout.Replayer) {
				pr := layout.NewReplayer(a.l, a.tr, cfg.LineBytes, false)
				pe := layout.NewReplayer(b.l, b.tr, cfg.LineBytes, true)
				pr.AppendLines(nil, skipA)
				pe.AppendLines(nil, skipB)
				return pr, pe
			}
			wantP, wantQ := mk()
			want := simulateCorunAppendLines(cfg, wantP, wantQ)
			gotP, gotQ := mk()
			got := cachesim.SimulateCorun(cfg, gotP, gotQ)
			if got != want {
				t.Fatalf("case %d: lap kernel %+v, oracle %+v", i, got, want)
			}
			for _, c := range [][2]*layout.Replayer{{gotP, wantP}, {gotQ, wantQ}} {
				if c[0].Pos() != c[1].Pos() || c[0].Laps() != c[1].Laps() || c[0].Done() != c[1].Done() {
					t.Fatalf("case %d: cursor (pos %d, laps %d), oracle (pos %d, laps %d)",
						i, c[0].Pos(), c[0].Laps(), c[1].Pos(), c[1].Laps())
				}
				next, _ := c[1].AppendLines(nil, 4)
				if got, _ := c[0].AppendLines(nil, 4); !reflect.DeepEqual(got, next) {
					t.Fatalf("case %d: stream after the co-run diverges", i)
				}
			}
		}
	})

	t.Run("edges", func(t *testing.T) {
		p, err := core.LoadProgram("429.mcf")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		l := shuffledLayout(p, rng)
		empty := trace.New(nil)
		one := trace.New([]int32{int32(p.Entry(0))})
		some := randomTrace(p, 500, rng)
		for _, c := range []struct {
			name          string
			primary, peer *trace.Trace
		}{
			{"empty primary", empty, some},
			{"empty peer", some, empty},
			{"both empty", empty, empty},
			{"single-occurrence primary", one, some},
			{"single-occurrence peer", some, one},
			{"single-occurrence both", one, one},
		} {
			for _, cfg := range geometries {
				checkCorunMatchesOracle(t, c.name, cfg, corunSide{l, c.primary}, corunSide{l, c.peer})
			}
		}

		// A block whose appended jump patches a displaced fall-through f,
		// last in a trace that starts with f: a wrapping replayer runs
		// the jump (its successor is the wrapped-to f), a non-wrapping one
		// does not.
		found := 0
		for b := range p.Blocks {
			blk := p.Blocks[b]
			br, isBranch := blk.Term.(ir.Branch)
			if !isBranch || l.Size[b] == blk.Size {
				continue
			}
			tr := trace.New([]int32{int32(br.Fall), int32(br.Taken), int32(b)})
			for _, cfg := range geometries {
				checkCorunMatchesOracle(t, "fall-through wraps to first", cfg, corunSide{l, some}, corunSide{l, tr})
				checkCorunMatchesOracle(t, "fall-through at primary end", cfg, corunSide{l, tr}, corunSide{l, tr})
			}
			found++
		}
		if found == 0 {
			t.Fatal("the shuffled layout displaced no branch fall-through")
		}
	})
}
