package cachesim_test

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/trace"
)

// BenchmarkCorunLaps runs the co-run kernel alone: each suite pair's
// six simulations, as layoutd's pair analysis runs them, over laps
// resolved before the timer starts. The entries and pairs are
// BenchmarkComputePair's (429.mcf, 458.sjeng and 445.gobmk under
// func-affinity and bb-affinity, each entry against the one three
// places on), at the default geometry. It reports ms/pair.
func BenchmarkCorunLaps(b *testing.B) {
	type entry struct{ base, opt *layout.Lap }
	var entries []entry
	cfg := cachesim.L1IDefault
	for _, prog := range []string{"429.mcf", "458.sjeng", "445.gobmk"} {
		p, err := core.LoadProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := core.ProfileProgram(p, core.TrainSeed)
		if err != nil {
			b.Fatal(err)
		}
		tr := prof.Blocks.Trimmed()
		base := layout.Stream{Layout: layout.Original(p), Trace: tr, LineBytes: cfg.LineBytes}.Resolve()
		for _, o := range []core.Optimizer{core.FuncAffinity(), core.BBAffinity()} {
			l, _, err := o.Optimize(prof)
			if err != nil {
				b.Fatal(err)
			}
			opt := layout.Stream{Layout: l, Trace: tr, LineBytes: cfg.LineBytes}.Resolve()
			entries = append(entries, entry{base, opt})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for k, x := range entries {
			y := entries[(k+3)%len(entries)]
			for _, run := range [][2]*layout.Lap{
				{x.base, y.base}, {x.opt, y.base}, {y.base, x.base},
				{y.opt, x.base}, {x.opt, y.opt}, {y.opt, x.opt},
			} {
				cachesim.SimulateCorunLaps(cfg, run[0], run[1])
			}
		}
	}
	b.ReportMetric(float64(time.Since(start))/float64(time.Millisecond)/float64(b.N*len(entries)), "ms/pair")
}

// FuzzLapKernelsMatchOracle holds the range kernels to the per-line
// oracles on fuzzed geometries, layouts and traces: SimulateCorun to
// simulateCorunAppendLines (peer laps included) and a SoloStream of
// each side to SimulateSolo. The inputs decode as:
//
//	ways   1..16 ways per set
//	sets   1..128 sets, powers of two among them
//	line   4, 8, 16, 32, 64 or 128 bytes
//	seed   the two shuffled layouts of 429.mcf, and the solo chunk size
//	a, b   the primary's and the peer's traces, two bytes per block
//	       occurrence, cut to maxFuzzOccurrences
//
// Inputs with 4 ways and a power-of-two set count take miss4.
func FuzzLapKernelsMatchOracle(f *testing.F) {
	p, err := core.LoadProgram("429.mcf")
	if err != nil {
		f.Fatal(err)
	}
	// Short seed traces keep minimizing a new input quick. They draw
	// on 24 blocks, and small caches make them evict and hit every way.
	rng := rand.New(rand.NewSource(30))
	ab := make([]byte, 160)
	for i := 0; i < len(ab); i += 2 {
		binary.LittleEndian.PutUint16(ab[i:], uint16(rng.Intn(24)))
	}
	a, b := ab[:96], ab[96:]
	f.Add(uint8(3), uint8(127), uint8(4), int64(1), a, b) // L1IDefault
	f.Add(uint8(3), uint8(3), uint8(4), int64(2), a, b)   // 4 ways, 4 sets
	f.Add(uint8(3), uint8(5), uint8(3), int64(3), a, b)   // 4 ways, 6 sets
	f.Add(uint8(0), uint8(7), uint8(4), int64(4), a, b)   // direct-mapped
	f.Add(uint8(15), uint8(1), uint8(0), int64(5), a, b)  // 16-way, 4-byte lines
	f.Add(uint8(1), uint8(3), uint8(2), int64(6), a[:2], b[:2])
	f.Add(uint8(3), uint8(3), uint8(4), int64(7), a[:0], b)
	f.Fuzz(func(t *testing.T, ways, sets, line uint8, seed int64, a, b []byte) {
		cfg := cachesim.Config{Assoc: 1 + int(ways)%16, LineBytes: 4 << (line % 6)}
		cfg.SizeBytes = (1 + int(sets)%128) * cfg.Assoc * cfg.LineBytes
		rng := rand.New(rand.NewSource(seed))
		primary := corunSide{shuffledLayout(p, rng), fuzzTrace(p, a)}
		peer := corunSide{shuffledLayout(p, rng), fuzzTrace(p, b)}
		checkCorunMatchesOracle(t, "fuzz", cfg, primary, peer)
		chunk := 1 + rng.Intn(100)
		for _, s := range []corunSide{primary, peer} {
			want := cachesim.SimulateSolo(cfg, layout.NewReplayer(s.l, s.tr, cfg.LineBytes, false))
			if got := feedSolo(cfg, s.l, s.tr.Syms, chunk); got != want {
				t.Fatalf("%+v chunk=%d: streamed %+v, buffered %+v", cfg, chunk, got, want)
			}
		}
	})
}

// maxFuzzOccurrences caps a fuzzed trace so each run stays fast.
const maxFuzzOccurrences = 2048

// fuzzTrace decodes two bytes per block occurrence of p.
func fuzzTrace(p *ir.Program, data []byte) *trace.Trace {
	syms := make([]int32, min(len(data)/2, maxFuzzOccurrences))
	for i := range syms {
		syms[i] = int32(binary.LittleEndian.Uint16(data[2*i:]) % uint16(p.NumBlocks()))
	}
	return trace.New(syms)
}

// TestSimulateCorunRefusesWrappingPrimary: the kernel ends only when
// its primary runs out, so a wrapping primary is refused with a panic
// that names it, by SimulateCorun and by SimulateCorunBatch, before any
// simulation starts.
func TestSimulateCorunRefusesWrappingPrimary(t *testing.T) {
	p, err := core.LoadProgram("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	l, tr := layout.Original(p), randomTrace(p, 200, rand.New(rand.NewSource(30)))
	wraps := func() *layout.Replayer { return layout.NewReplayer(l, tr, 64, true) }
	for name, run := range map[string]func(){
		"SimulateCorun": func() { cachesim.SimulateCorun(cachesim.L1IDefault, wraps(), wraps()) },
		"SimulateCorunBatch": func() {
			cachesim.SimulateCorunBatch(cachesim.L1IDefault, []cachesim.CorunJob{
				{Primary: layout.NewReplayer(l, tr, 64, false), Peer: wraps()},
				{Primary: wraps(), Peer: wraps()},
			}, 1)
		},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "primary replayer wraps") {
					t.Errorf("%s: recovered %q, want a panic naming the wrapping primary", name, msg)
				}
			}()
			run()
		}()
	}
}
