package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/footprint"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// This file keeps the pair analysis as it was before the stepped co-run
// kernel, the stored solo ratios and the in-place footprint sweep, as
// the reference that computePair must reproduce byte for byte: six
// AppendLines-driven simulations, solo ratios replayed per request, and
// the table-based footprint curve.

// refEntry is corunEntry with the reference memos: line traces, curves
// and replayed solo ratios.
type refEntry struct {
	*corunEntry

	mu     sync.Mutex
	lines  map[int][]int32
	curves map[int]*footprint.Curve
	solo   map[cachesim.Config]float64
}

func (e *refEntry) lineTrace(lineBytes int) []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if lines, ok := e.lines[lineBytes]; ok {
		return lines
	}
	r := layout.NewReplayer(e.opt, e.tr, lineBytes, false)
	var lines []int32
	buf := make([]int64, 0, 4096)
	for {
		out, blocks := r.AppendLines(buf[:0], 1024)
		if blocks == 0 {
			break
		}
		for _, ln := range out {
			lines = append(lines, int32(ln))
		}
		buf = out[:0]
	}
	if e.lines == nil {
		e.lines = make(map[int][]int32)
	}
	e.lines[lineBytes] = lines
	return lines
}

func (e *refEntry) curve(ctx context.Context, lineBytes, workers int) *footprint.Curve {
	lines := e.lineTrace(lineBytes)
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.curves[lineBytes]; ok {
		return c
	}
	c := refCurve(lines, nil, workers)
	if e.curves == nil {
		e.curves = make(map[int]*footprint.Curve)
	}
	e.curves[lineBytes] = c
	return c
}

func (e *refEntry) soloMiss(ctx context.Context, cfg cachesim.Config) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.solo[cfg]; ok {
		return m
	}
	m := cachesim.SimulateSoloCtx(ctx, cfg,
		layout.NewReplayer(e.opt, e.tr, cfg.LineBytes, false)).Stats.MissRatio()
	if e.solo == nil {
		e.solo = make(map[cachesim.Config]float64)
	}
	e.solo[cfg] = m
	return m
}

// refSimulateCorun is the AppendLines-driven co-run kernel.
func refSimulateCorun(cfg cachesim.Config, primary, peer *layout.Replayer) cachesim.CorunResult {
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

// refCurve is the table-based footprint curve: separate reuse-time,
// weight and deficit tables beside FP.
func refCurve(syms []int32, weights []int32, workers int) *footprint.Curve {
	n := len(syms)
	c := &footprint.Curve{FP: make([]float64, n+1), N: n}
	if n == 0 {
		return c
	}
	maxSym := int32(0)
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	first := make([]int, maxSym+1)
	last := make([]int, maxSym+1)
	for i := range first {
		first[i] = -1
	}
	w := func(s int32) float64 {
		if weights == nil {
			return 1
		}
		return float64(weights[s])
	}
	rt := make([]float64, n+1)
	var m float64
	for t, s := range syms {
		if first[s] < 0 {
			first[s] = t
			m += w(s)
		} else {
			d := t - last[s]
			rt[d] += w(s)
		}
		last[s] = t
	}
	c.Total = m
	wt := make([]float64, n+2)
	for s := int32(0); s <= maxSym; s++ {
		if first[s] < 0 {
			continue
		}
		wt[first[s]+1] += w(s)
		wt[n-last[s]] += w(s)
	}
	for t := 1; t <= n && t < len(rt); t++ {
		wt[t] += rt[t]
	}
	deficit := make([]float64, n+2)
	var tailWeight, tailDeficit float64
	for v := n; v >= 1; v-- {
		if v+1 <= n {
			tailWeight += wt[v+1]
		}
		tailDeficit += tailWeight
		deficit[v] = tailDeficit
	}
	chunks := parallel.Chunks(n, parallel.Workers(workers), 4096)
	_ = parallel.ForEach(workers, len(chunks), func(ci int) error {
		for win := chunks[ci][0] + 1; win <= chunks[ci][1]; win++ {
			windows := float64(n - win + 1)
			c.FP[win] = m - deficit[win]/windows
			if c.FP[win] < 0 {
				c.FP[win] = 0
			}
			if c.FP[win] > m {
				c.FP[win] = m
			}
		}
		return nil
	})
	return c
}

// refComputePair is computePair as it was, over reference entries; its
// six simulations run one by one, which equals the batch
// (TestSimulateCorunBatchMatchesIndividual).
func refComputePair(ctx context.Context, cfg cachesim.Config, a, b *refEntry, workers int) (*CorunDoc, error) {
	if b.res.Digest < a.res.Digest {
		a, b = b, a
	}
	sp := obs.StartSpan(ctx, "corun.replay")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := func(l *layout.Layout, t *trace.Trace, wrap bool) *layout.Replayer {
		return layout.NewReplayer(l, t, cfg.LineBytes, wrap)
	}
	jobs := []cachesim.CorunJob{
		{Primary: rep(a.base, a.tr, false), Peer: rep(b.base, b.tr, true)}, // 0: baseline pairing, A's view
		{Primary: rep(a.opt, a.tr, false), Peer: rep(b.base, b.tr, true)},  // 1: A optimized, peer baseline
		{Primary: rep(b.base, b.tr, false), Peer: rep(a.base, a.tr, true)}, // 2: baseline pairing, B's view
		{Primary: rep(b.opt, b.tr, false), Peer: rep(a.base, a.tr, true)},  // 3: B optimized, peer baseline
		{Primary: rep(a.opt, a.tr, false), Peer: rep(b.opt, b.tr, true)},   // 4: deployed pairing, A's view
		{Primary: rep(b.opt, b.tr, false), Peer: rep(a.opt, a.tr, true)},   // 5: deployed pairing, B's view
	}
	res := make([]cachesim.CorunResult, len(jobs))
	for i, j := range jobs {
		res[i] = refSimulateCorun(cfg, j.Primary, j.Peer)
	}
	sp.SetAttr("sims", int64(len(jobs)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	curveA := a.curve(ctx, cfg.LineBytes, workers)
	curveB := b.curve(ctx, cfg.LineBytes, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	capacity := float64(cfg.SizeBytes / cfg.LineBytes)
	predA := footprint.CorunMissRatio(curveA, curveB, capacity)
	predB := footprint.CorunMissRatio(curveB, curveA, capacity)
	side := func(e *refEntry, baseRun, optRun, deployed cachesim.CorunResult, pred float64, curve *footprint.Curve) PairSide {
		solo := e.soloMiss(ctx, cfg)
		corun := deployed.PerThread[0].MissRatio()
		return PairSide{
			Digest:        e.res.Digest,
			Prog:          e.res.Prog,
			Optimizer:     e.res.Optimizer,
			MissSolo:      solo,
			MissCorun:     corun,
			Contention:    corun - solo,
			Defensiveness: stats.Reduction(baseRun.PerThread[0].MissRatio(), optRun.PerThread[0].MissRatio()),
			Politeness:    stats.Reduction(baseRun.PerThread[1].MissRatio(), optRun.PerThread[1].MissRatio()),
			PredMissRatio: pred,
			PredMisses:    pred * float64(curve.N),
		}
	}
	sideA := side(a, res[0], res[1], res[4], predA, curveA)
	sideB := side(b, res[2], res[3], res[5], predB, curveB)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CorunDoc{
		Digest:   corunDigest(a.res.Digest, b.res.Digest, cfg),
		Cache:    cfg,
		A:        sideA,
		B:        sideB,
		PairCost: sideA.PredMisses + sideB.PredMisses,
		PeerLaps: [2]int{res[4].PeerLaps, res[5].PeerLaps},
	}, nil
}

// encodedProfile profiles a suite program on the training input and
// returns its trimmed block trace as CLTR bytes.
func encodedProfile(t *testing.T, prog string) []byte {
	t.Helper()
	if prog == testProg {
		raw, _ := recordedTrace(t)
		return raw
	}
	p, err := core.LoadProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileProgram(p, core.TrainSeed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prof.Blocks.Trimmed().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestComputePairMatchesReference: over suite results that came through
// the daemon's own ingest — so each MissAfter is the daemon's — the pair
// analysis gives the reference's CorunDoc JSON byte for byte, for every
// optimizer kind, self-pairings included, under the default geometry
// and two others.
func TestComputePairMatchesReference(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 2, QueueDepth: 16, OptWorkers: 2})
	var digests []string
	for _, sub := range []struct {
		prog string
		opts []string
	}{
		{testProg, core.OptimizerNames()},
		{"429.mcf", []string{"func-affinity", "bb-affinity", "bb-trg"}},
	} {
		raw := encodedProfile(t, sub.prog)
		for _, opt := range sub.opts {
			v, code := submitRaw(t, ts, raw, "prog="+sub.prog+"&opt="+opt)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit %s/%s: status %d", sub.prog, opt, code)
			}
			done := waitJob(t, ts, v.ID)
			if done.Status != StatusDone {
				t.Fatalf("optimize %s/%s: %+v", sub.prog, opt, done)
			}
			digests = append(digests, done.Digest)
		}
	}
	// Under the default geometry, whose solo ratio comes from the stored
	// MissAfter, every result meets two others and three meet
	// themselves; under the other two, every result appears once, the
	// odd one out in a self-pairing.
	type pair struct{ a, b int }
	var defaultPairs, otherPairs []pair
	for i := range digests {
		defaultPairs = append(defaultPairs, pair{i, (i + 1) % len(digests)})
		if i%2 == 0 {
			otherPairs = append(otherPairs, pair{i, min(i+1, len(digests)-1)})
		}
	}
	defaultPairs = append(defaultPairs, pair{0, 0}, pair{1, 1}, pair{len(digests) - 1, len(digests) - 1})
	geometries := []struct {
		cfg   cachesim.Config
		pairs []pair
	}{
		{cachesim.L1IDefault, defaultPairs},
		{cachesim.Config{SizeBytes: 16 << 10, Assoc: 2, LineBytes: 32}, otherPairs},
		{cachesim.Config{SizeBytes: 64 << 10, Assoc: 8, LineBytes: 128}, otherPairs},
	}

	ctx := context.Background()
	resolve := func(d string) *corunEntry {
		e, _, err := s.resolveEntry(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Fresh entries on both sides, shared across geometries as a schedule
	// job shares them across pairs.
	entries := make([]*corunEntry, len(digests))
	refs := make([]*refEntry, len(digests))
	for i, d := range digests {
		entries[i] = resolve(d)
		refs[i] = &refEntry{corunEntry: resolve(d)}
	}
	for _, g := range geometries {
		cfg := g.cfg
		for _, p := range g.pairs {
			got, err := s.computePair(ctx, cfg, entries[p.a], entries[p.b], 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refComputePair(ctx, cfg, refs[p.a], refs[p.b], 2)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("cache %+v, %s x %s:\n got %s\nwant %s", cfg,
					entries[p.a].res.Optimizer, entries[p.b].res.Optimizer, gotJSON, wantJSON)
			}
		}
	}
}
