package cachesim_test

import (
	"math/rand"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/layout"
)

// feedSolo replays syms through a SoloStream of l in chunks of the
// given size and returns its result.
func feedSolo(cfg cachesim.Config, l *layout.Layout, syms []int32, chunk int) cachesim.SoloResult {
	s := cachesim.NewSoloStream(cfg, l)
	for len(syms) > 0 {
		c := min(chunk, len(syms))
		s.Feed(syms[:c])
		syms = syms[c:]
	}
	return s.Finish()
}

// TestSoloStreamStubRanges: on shuffled layouts, whose ranges include
// entry stubs and appended jumps, the streamed range walk matches the
// buffered SimulateSolo under every geometry the co-run oracle replays.
func TestSoloStreamStubRanges(t *testing.T) {
	p, err := core.LoadProgram("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	geometries := []cachesim.Config{
		cachesim.L1IDefault,
		{SizeBytes: 24 << 10, Assoc: 4, LineBytes: 64},
		{SizeBytes: 4 << 10, Assoc: 1, LineBytes: 64},
		{SizeBytes: 32 << 10, Assoc: 16, LineBytes: 64},
		{SizeBytes: 2 << 10, Assoc: 2, LineBytes: 32},
		{SizeBytes: 8 << 10, Assoc: 4, LineBytes: 4},
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 8; i++ {
		l := shuffledLayout(p, rng)
		if !l.HasStubs() {
			t.Fatal("the shuffled layout carries no entry stubs")
		}
		tr := randomTrace(p, 1+rng.Intn(5000), rng)
		for _, cfg := range geometries {
			want := cachesim.SimulateSolo(cfg, layout.NewReplayer(l, tr, cfg.LineBytes, false))
			for _, chunk := range []int{1, 37, 8192} {
				if got := feedSolo(cfg, l, tr.Syms, chunk); got != want {
					t.Fatalf("case %d %+v chunk=%d: streamed %+v, buffered %+v", i, cfg, chunk, got, want)
				}
			}
		}
	}
}

// BenchmarkSoloStream runs the two solo replays layoutd's replay step
// runs for a job: 458.sjeng's original and func-affinity layouts over
// its trimmed training trace, fed in 8,192-reference chunks as the
// upload decodes, at the default geometry.
func BenchmarkSoloStream(b *testing.B) {
	p, err := core.LoadProgram("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := core.ProfileProgram(p, core.TrainSeed)
	if err != nil {
		b.Fatal(err)
	}
	opt, _, err := core.FuncAffinity().Optimize(prof)
	if err != nil {
		b.Fatal(err)
	}
	base, syms := layout.Original(p), prof.Blocks.Trimmed().Syms
	cfg := cachesim.L1IDefault
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orig, after := cachesim.NewSoloStream(cfg, base), cachesim.NewSoloStream(cfg, opt)
		for c := syms; len(c) > 0; {
			n := min(8192, len(c))
			orig.Feed(c[:n])
			after.Feed(c[:n])
			c = c[n:]
		}
		orig.Finish()
		after.Finish()
	}
}
