package cachesim

import (
	"math/rand"
	"testing"

	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
)

func tinyCfg(assoc int) Config {
	return Config{SizeBytes: 4 * 64 * assoc, Assoc: assoc, LineBytes: 64} // 4 sets
}

func TestConfigValidate(t *testing.T) {
	if err := L1IDefault.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if L1IDefault.Sets() != 128 {
		t.Errorf("Sets = %d, want 128", L1IDefault.Sets())
	}
	bad := Config{SizeBytes: 1000, Assoc: 4, LineBytes: 64}
	if err := bad.Validate(); err == nil {
		t.Error("accepted non-divisible size")
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("accepted zero config")
	}
	// assoc*line overflows to 0: refused, not a divide by zero.
	if err := (Config{SizeBytes: 64, Assoc: 1 << 62, LineBytes: 4}).Validate(); err == nil {
		t.Error("accepted an assoc*line overflow")
	}
	if err := (Config{SizeBytes: 64, Assoc: 4, LineBytes: 1 << 62}).Validate(); err == nil {
		t.Error("accepted an assoc*line overflow")
	}
	// A cache New could not allocate: refused.
	if err := (Config{SizeBytes: 1 << 50, Assoc: 1, LineBytes: 1}).Validate(); err == nil {
		t.Error("accepted a 2^50-way cache")
	}
	for _, c := range []Config{
		{SizeBytes: MaxWays * 64, Assoc: 8, LineBytes: 64},
		{SizeBytes: MaxWays, Assoc: MaxWays, LineBytes: 1},
		L2Default,
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v at the way bound refused: %v", c, err)
		}
	}
	if err := (Config{SizeBytes: 2 * MaxWays * 64, Assoc: 8, LineBytes: 64}).Validate(); err == nil {
		t.Error("accepted a geometry above the way bound")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	cfg := tinyCfg(1) // 4 sets, direct mapped
	c := New(cfg)
	var st Stats
	// Lines 0 and 4 map to set 0 and evict each other.
	for i := 0; i < 10; i++ {
		c.Access(0, &st)
		c.Access(4, &st)
	}
	if st.Misses != 20 {
		t.Errorf("misses = %d, want 20 (ping-pong)", st.Misses)
	}
	// Lines 0 and 1 map to different sets: only cold misses.
	c2 := New(cfg)
	var st2 Stats
	for i := 0; i < 10; i++ {
		c2.Access(0, &st2)
		c2.Access(1, &st2)
	}
	if st2.Misses != 2 {
		t.Errorf("misses = %d, want 2", st2.Misses)
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	cfg := tinyCfg(2) // 4 sets, 2-way
	c := New(cfg)
	var st Stats
	// Three lines in set 0: 0, 4, 8. LRU evicts the oldest.
	c.Access(0, &st)
	c.Access(4, &st)
	c.Access(8, &st) // evicts 0
	if c.Contains(0) {
		t.Error("line 0 should be evicted")
	}
	if !c.Contains(4) || !c.Contains(8) {
		t.Error("lines 4, 8 should be resident")
	}
	c.Access(4, &st) // 4 becomes MRU
	c.Access(0, &st) // evicts 8
	if c.Contains(8) || !c.Contains(4) {
		t.Error("LRU order wrong after touch")
	}
}

// TestLRUMatchesStackDistance cross-validates the cache against the
// stack-distance oracle: in a fully associative LRU cache of A lines, an
// access misses iff its reuse stack distance exceeds A.
func TestLRUMatchesStackDistance(t *testing.T) {
	const assoc = 8
	cfg := Config{SizeBytes: assoc * 64, Assoc: assoc, LineBytes: 64} // 1 set
	c := New(cfg)
	rng := rand.New(rand.NewSource(31))
	lines := make([]int32, 4000)
	for i := range lines {
		lines[i] = int32(rng.Intn(24))
	}
	dists := stackdist.Distances(lines)
	var st Stats
	for i, ln := range lines {
		hit := c.Access(int64(ln), &st)
		wantHit := dists[i] != stackdist.Infinite && dists[i] <= assoc
		if hit != wantHit {
			t.Fatalf("access %d (line %d, dist %d): hit=%v want %v", i, ln, dists[i], hit, wantHit)
		}
	}
}

func TestFlush(t *testing.T) {
	c := New(tinyCfg(2))
	var st Stats
	c.Access(3, &st)
	c.Flush()
	if c.Contains(3) {
		t.Error("line survived flush")
	}
}

func TestPrefetch(t *testing.T) {
	c := New(tinyCfg(2))
	var st Stats
	c.Prefetch(5, &st)
	if st.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d, want 1", st.PrefetchFills)
	}
	// Demand access to the prefetched line hits and counts PrefetchHits.
	if hit := c.Access(5, &st); !hit {
		t.Error("prefetched line missed")
	}
	if st.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d, want 1", st.PrefetchHits)
	}
	// Second access is a plain hit.
	c.Access(5, &st)
	if st.PrefetchHits != 1 {
		t.Errorf("PrefetchHits counted twice")
	}
	// Prefetching a present line is a no-op.
	c.Prefetch(5, &st)
	if st.PrefetchFills != 1 {
		t.Error("prefetch refilled a present line")
	}
}

func TestStatsAddAndRatio(t *testing.T) {
	a := Stats{Accesses: 10, Misses: 2}
	b := Stats{Accesses: 5, Misses: 3, PrefetchHits: 1}
	a.Add(b)
	if a.Accesses != 15 || a.Misses != 5 || a.PrefetchHits != 1 {
		t.Errorf("Add wrong: %+v", a)
	}
	if got := a.MissRatio(); got != 5.0/15.0 {
		t.Errorf("MissRatio = %v", got)
	}
	if (Stats{}).MissRatio() != 0 {
		t.Error("idle MissRatio != 0")
	}
}

// loopProgram builds a program that cyclically executes `blocks` basic
// blocks of the given size, `iters` times.
func loopProgram(t testing.TB, blocks int, size int32, iters int32) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("loop", 0)
	f := b.Func("main")
	bbs := make([]*ir.BlockBuilder, blocks)
	for i := range bbs {
		bbs[i] = f.Block("b", size)
	}
	latch := f.Block("latch", 4)
	exit := f.Block("exit", 4)
	for i := 0; i < blocks-1; i++ {
		bbs[i].Jump(bbs[i+1])
	}
	bbs[blocks-1].Jump(latch)
	latch.Loop(iters, bbs[0], exit)
	exit.Exit()
	return b.MustBuild()
}

func runTrace(t testing.TB, p *ir.Program) *trace.Trace {
	t.Helper()
	res, err := interpRun(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateSoloWorkingSetFits(t *testing.T) {
	// 16 blocks x 64 B = 1 KB loop: fits a 32 KB cache, so only cold
	// misses.
	p := loopProgram(t, 16, 64, 200)
	tr := runTrace(t, p)
	l := layout.Original(p)
	res := SimulateSolo(L1IDefault, layout.NewReplayer(l, tr, 64, false))
	if res.Stats.Misses > 40 {
		t.Errorf("fitting loop missed %d times, want only cold misses", res.Stats.Misses)
	}
	if res.Stats.Accesses == 0 || res.Blocks == 0 {
		t.Error("no activity simulated")
	}
}

func TestSimulateSoloThrashing(t *testing.T) {
	// 1024 blocks x 64 B = 64 KB loop: twice the cache, LRU thrashes.
	p := loopProgram(t, 1024, 64, 20)
	tr := runTrace(t, p)
	l := layout.Original(p)
	res := SimulateSolo(L1IDefault, layout.NewReplayer(l, tr, 64, false))
	if mr := res.Stats.MissRatio(); mr < 0.9 {
		t.Errorf("thrashing loop miss ratio = %v, want ~1", mr)
	}
}

func TestSimulateCorunContention(t *testing.T) {
	// Each program loops over 20 KB; alone each fits in 32 KB, together
	// they thrash.
	p := loopProgram(t, 320, 64, 60)
	tr := runTrace(t, p)
	l := layout.Original(p)

	solo := SimulateSolo(L1IDefault, layout.NewReplayer(l, tr, 64, false))
	co := SimulateCorun(L1IDefault,
		layout.NewReplayer(l, tr, 64, false),
		layout.NewReplayer(l, tr, 64, true))

	soloMR := solo.Stats.MissRatio()
	coMR := co.PerThread[0].MissRatio()
	if coMR <= soloMR*2 {
		t.Errorf("co-run miss ratio %v not substantially above solo %v", coMR, soloMR)
	}
	if co.Blocks[0] == 0 || co.Blocks[1] == 0 {
		t.Error("both threads must progress")
	}
}

func TestSimulateCorunPeerWraps(t *testing.T) {
	long := loopProgram(t, 64, 64, 400)
	short := loopProgram(t, 64, 64, 4)
	trLong := runTrace(t, long)
	trShort := runTrace(t, short)
	lLong := layout.Original(long)
	lShort := layout.Original(short)
	res := SimulateCorun(L1IDefault,
		layout.NewReplayer(lLong, trLong, 64, false),
		layout.NewReplayer(lShort, trShort, 64, true))
	if res.PeerLaps == 0 {
		t.Error("short peer should wrap while long primary runs")
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(L1IDefault)
	var st Stats
	rng := rand.New(rand.NewSource(1))
	lines := make([]int64, 8192)
	for i := range lines {
		lines[i] = int64(rng.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(lines[i&8191], &st)
	}
}
