package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/footprint"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// maxJSONBody caps the /v1/corun and /v1/schedule request bodies; these
// carry digests and parameters, never trace payloads.
const maxJSONBody = 1 << 20

// corunRequest is the decoded body of POST /v1/corun: two cached layout
// digests plus an optional cache geometry (default: the paper's 32 KB
// 4-way L1I). Self-pairing (a == b) is allowed — two instances of the
// same layout sharing a cache is a meaningful co-run.
type corunRequest struct {
	A     string           `json:"a"`
	B     string           `json:"b"`
	Cache *cachesim.Config `json:"cache,omitempty"`
}

// PairSide is one program's view of a co-run pairing in a CorunDoc. The
// measured numbers come from replaying both traces through one shared
// simulated cache (cachesim.SimulateCorun); the predicted ones from the
// paper's Eq-1 footprint composition, which the scheduler minimizes.
type PairSide struct {
	// Digest names the cached optimization result this side replays.
	Digest    string `json:"digest"`
	Prog      string `json:"prog"`
	Optimizer string `json:"optimizer"`
	// MissSolo is the optimized layout's solo miss ratio; MissCorun its
	// miss ratio co-running with the peer's optimized layout; Contention
	// the difference — what sharing the cache costs this program.
	MissSolo   float64 `json:"missSolo"`
	MissCorun  float64 `json:"missCorun"`
	Contention float64 `json:"contention"`
	// Defensiveness is the relative reduction of this side's co-run miss
	// ratio from optimizing it (baseline peer held fixed); Politeness is
	// the relative reduction it causes in the peer's miss ratio — the
	// paper's benefit classes 2 and 3.
	Defensiveness float64 `json:"defensiveness"`
	Politeness    float64 `json:"politeness"`
	// PredMissRatio is the Eq-1 predicted co-run miss ratio of this
	// side's optimized layout against the peer's; PredMisses scales it
	// by the side's line-fetch count to a predicted miss count.
	PredMissRatio float64 `json:"predMissRatio"`
	PredMisses    float64 `json:"predMisses"`
}

// CorunDoc is the completed output of one co-run analysis — what the
// pair cache stores under its digest and what the interference matrix is
// assembled from. Sides are in canonical (sorted-digest) order, so the
// documents for (a, b) and (b, a) are one blob.
type CorunDoc struct {
	// Digest is the content address: SHA-256 over the sorted result
	// digests and the cache geometry.
	Digest string          `json:"digest"`
	Cache  cachesim.Config `json:"cache"`
	A      PairSide        `json:"a"`
	B      PairSide        `json:"b"`
	// PairCost is the total Eq-1 predicted co-run misses of the pairing
	// (A.PredMisses + B.PredMisses) — the symmetric weight the placement
	// solver minimizes.
	PairCost float64 `json:"pairCost"`
	// PeerLaps reports how many times each side's wrapping peer restarted
	// during the deployed-pairing simulation (A's run, then B's).
	PeerLaps [2]int `json:"peerLaps"`
	// ElapsedMS is the analysis wall time (0 for cache hits).
	ElapsedMS float64 `json:"elapsedMS"`
}

// corunJobRequest carries a validated /v1/corun job to its pool worker.
type corunJobRequest struct {
	a, b     *corunEntry
	cfg      cachesim.Config
	deadline time.Time
	// ctx is the job's lifetime context; DELETE /v1/jobs/{id} cancels it
	// even after the job started — co-run and schedule jobs are
	// cancelable mid-run, unlike optimizations.
	ctx context.Context
}

// corunEntry is one digest's materialized inputs: the cached result, the
// baseline and rebuilt optimized layouts, and the retained trace.
// Derived artifacts (footprint curves, solo miss ratios off the default
// geometry) are memoized per entry: a /v1/corun self-pairing shares one
// entry between both sides, and a schedule job reads one curve for
// every cell the entry appears in. The mutex serializes that lazy work.
type corunEntry struct {
	res  *Result
	base *layout.Layout
	opt  *layout.Layout
	tr   *trace.Trace

	mu     sync.Mutex
	curves map[int]*footprint.Curve    // footprint curve by lineBytes
	solo   map[cachesim.Config]float64 // optimized solo miss ratio by geometry
}

// curve returns the entry's footprint curve over its optimized layout
// replayed to a cache-line reference trace, memoized per line size.
// lap is the optimized stream already resolved at lineBytes, or nil to
// resolve it here. The line trace is sized exactly from the lap and
// lives only while the curve is computed.
func (e *corunEntry) curve(ctx context.Context, lineBytes, workers int, lap *layout.Lap) *footprint.Curve {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.curves[lineBytes]; ok {
		return c
	}
	if lap == nil {
		lap = layout.Stream{Layout: e.opt, Trace: e.tr, LineBytes: lineBytes}.Resolve()
	}
	c := footprint.NewCurveCtx(ctx, lap.LineTrace(), nil, workers)
	if e.curves == nil {
		e.curves = make(map[int]*footprint.Curve)
	}
	e.curves[lineBytes] = c
	return c
}

// soloMiss returns the optimized layout's solo miss ratio under cfg.
// Under the default geometry it is the result's MissAfter: the
// optimization job replayed the same layout (LayoutFromSequence rebuilds
// it exactly) over the same trace (the one retained under TraceDigest)
// through cachesim.L1IDefault. Any other geometry is replayed here,
// memoized per geometry.
func (e *corunEntry) soloMiss(ctx context.Context, cfg cachesim.Config) float64 {
	if cfg == cachesim.L1IDefault {
		return e.res.MissAfter
	}
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

// corunDigest derives the content address of a pair analysis: the two
// result digests in sorted order (the pairing is symmetric) plus the
// cache geometry, newline-framed like resultDigest.
func corunDigest(dA, dB string, cfg cachesim.Config) string {
	if dB < dA {
		dA, dB = dB, dA
	}
	h := sha256.New()
	fmt.Fprintf(h, "layoutd/corun/v1\na:%s\nb:%s\ncache:%d/%d/%d\n",
		dA, dB, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// resolveEntry materializes one cached digest for co-run analysis:
// result lookup, trace retrieval, program regeneration, and layout
// rebuild from the recorded sequence. The int is the HTTP status a
// failure maps to.
func (s *Server) resolveEntry(ctx context.Context, digest string) (*corunEntry, int, error) {
	res, ok := s.cache.get(ctx, digest)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("no cached layout %q", digest)
	}
	tr, ok := s.traces.get(ctx, res.TraceDigest)
	if !ok {
		return nil, http.StatusNotFound,
			fmt.Errorf("trace %s behind layout %s is no longer retained; resubmit the profile to POST /v1/jobs",
				res.TraceDigest, digest)
	}
	prog, err := s.program(res.Prog)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	opt, err := core.LayoutFromSequence(prog, res.Optimizer, res.Report.Sequence)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &corunEntry{res: res, base: layout.Original(prog), opt: opt, tr: tr}, 0, nil
}

// readJSON decodes a small strict-schema JSON request body.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxJSONBody)
	defer body.Close()
	return decodeStrict(body, v)
}

// decodeStrict decodes one JSON value from r into v, refusing fields v
// does not declare.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// corunConfig resolves the optional cache geometry of a request.
func corunConfig(c *cachesim.Config) (cachesim.Config, error) {
	if c == nil {
		return cachesim.L1IDefault, nil
	}
	if err := c.Validate(); err != nil {
		return cachesim.Config{}, err
	}
	return *c, nil
}

// handleCorun is POST /v1/corun: analyze a pair of cached layouts
// sharing a cache. Pair documents are content-addressed, so a repeated
// pairing (in either order) completes instantly from the cache;
// otherwise the analysis runs as an async job with the same
// backpressure, deadline, and cancellation rules as optimizations.
func (s *Server) handleCorun(w http.ResponseWriter, r *http.Request) {
	traceID := requestTraceID(r)
	logger := s.logger.With("trace_id", traceID)
	rec := obs.NewRecorder(s.cfg.SpanBufferSize)
	rec.SetDropHook(s.metrics.spansDropped.Inc)
	ctx := obs.WithTraceID(obs.WithLogger(obs.WithRecorder(r.Context(), rec), logger), traceID)

	var req corunRequest
	if err := readJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.A == "" || req.B == "" {
		httpError(w, http.StatusBadRequest, errors.New(`missing required field: "a" and "b" layout digests`))
		return
	}
	cfg, err := corunConfig(req.Cache)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	pair, status, err := s.resolveEntries(ctx, []string{req.A, req.B})
	if err != nil {
		httpError(w, status, err)
		return
	}
	a, b := pair[0], pair[1]
	s.metrics.corunJobs.Inc()

	jr := &corunJobRequest{a: a, b: b, cfg: cfg, deadline: time.Now().Add(s.cfg.JobTimeout)}
	key := corunDigest(a.res.Digest, b.res.Digest, cfg)
	jobCtx, jobCancel := context.WithCancel(context.Background())
	jr.ctx = jobCtx

	j := &Job{
		id:       s.newJobID(),
		kind:     jobKindCorun,
		status:   StatusQueued,
		digest:   key,
		created:  time.Now(),
		cancel:   jobCancel,
		traceID:  traceID,
		rec:      rec,
		progName: a.res.Prog + "+" + b.res.Prog,
		optName:  a.res.Optimizer + "+" + b.res.Optimizer,
	}
	j.logger = logger.With("job", j.id)

	if doc, ok := s.pairs.get(ctx, key); ok {
		s.metrics.pairHits.Inc()
		j.cached = true
		s.finish(j, StatusDone, doc, nil)
		s.storeJob(j)
		s.metrics.accepted.Inc()
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	s.metrics.pairMisses.Inc()

	s.storeJob(j)
	accepted := s.pool.TrySubmit(func(poolCtx context.Context) {
		s.runCorunJob(poolCtx, j, jr)
	})
	if !accepted {
		s.dropJob(j.id)
		jobCancel()
		s.metrics.rejected.Inc()
		logger.Warn("corun job rejected: queue full", "job", j.id)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, errors.New("job queue full"))
		return
	}
	s.metrics.accepted.Inc()
	j.logger.Info("corun job accepted",
		"a", req.A, "b", req.B, "pair", key, "cache", cfg)
	writeJSON(w, http.StatusAccepted, j.view())
}

// runCorunJob is the pool task behind POST /v1/corun.
func (s *Server) runCorunJob(poolCtx context.Context, j *Job, req *corunJobRequest) {
	ctx, cleanup, ok := s.beginJob(poolCtx, j, req.deadline, req.ctx)
	if !ok {
		return
	}
	defer cleanup()
	start := time.Now()
	doc, err := s.pairAnalysis(ctx, req.cfg, req.a, req.b, s.cfg.OptWorkers)
	if err != nil {
		s.failOrCancel(j, err)
		return
	}
	doc.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.pairs.put(ctx, doc.Digest, doc)
	s.finish(j, StatusDone, doc, nil)
}

// computePair runs the six co-run simulations behind a pair document —
// baseline×baseline and optimized×baseline from each side's view
// (defensiveness and politeness), plus the deployed optimized×optimized
// pairing from both views (contention) — then adds the Eq-1 footprint
// predictions the scheduler consumes. The simulations share the pair's
// four resolved streams (simulatePair), and both footprint curves take
// their line traces from the optimized ones; the streams live only
// while the pair runs. Sides are canonicalized to sorted digest order
// so the document is identical for (a, b) and (b, a).
func (s *Server) computePair(ctx context.Context, cfg cachesim.Config, a, b *corunEntry, workers int) (*CorunDoc, error) {
	if b.res.Digest < a.res.Digest {
		a, b = b, a
	}
	sp := obs.StartSpan(ctx, "corun.replay")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, aOpt, bOpt := simulatePair(cfg, a, b, workers)
	sp.SetAttr("sims", int64(len(res)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pred := predictPair(cfg, a.curve(ctx, cfg.LineBytes, workers, aOpt), b.curve(ctx, cfg.LineBytes, workers, bOpt))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	side := func(e *corunEntry, baseRun, optRun, deployed cachesim.CorunResult, k int) PairSide {
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
			PredMissRatio: pred.ratio[k],
			PredMisses:    pred.misses[k],
		}
	}
	sideA := side(a, res[0], res[1], res[4], 0)
	sideB := side(b, res[2], res[3], res[5], 1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CorunDoc{
		Digest:   corunDigest(a.res.Digest, b.res.Digest, cfg),
		Cache:    cfg,
		A:        sideA,
		B:        sideB,
		PairCost: pred.cost,
		PeerLaps: [2]int{res[4].PeerLaps, res[5].PeerLaps},
	}, nil
}

// simulatePair resolves the four (layout, trace) streams of the pair
// (a, b) once — a self-pairing's sides share one entry, and so their
// streams — and runs computePair's six co-run simulations over them on
// up to workers goroutines. It returns the results in computePair's
// order and both optimized laps, the curves' input.
func simulatePair(cfg cachesim.Config, a, b *corunEntry, workers int) (res []cachesim.CorunResult, aOpt, bOpt *layout.Lap) {
	laps := make(map[layout.Stream]*layout.Lap, 4)
	lap := func(l *layout.Layout, e *corunEntry) *layout.Lap {
		st := layout.Stream{Layout: l, Trace: e.tr, LineBytes: cfg.LineBytes}
		if laps[st] == nil {
			laps[st] = st.Resolve()
		}
		return laps[st]
	}
	aBase, bBase := lap(a.base, a), lap(b.base, b)
	aOpt, bOpt = lap(a.opt, a), lap(b.opt, b)
	runs := [][2]*layout.Lap{
		{aBase, bBase}, // 0: baseline pairing, A's view
		{aOpt, bBase},  // 1: A optimized, peer baseline
		{bBase, aBase}, // 2: baseline pairing, B's view
		{bOpt, aBase},  // 3: B optimized, peer baseline
		{aOpt, bOpt},   // 4: deployed pairing, A's view
		{bOpt, aOpt},   // 5: deployed pairing, B's view
	}
	res, _ = parallel.Map(workers, len(runs), func(i int) (cachesim.CorunResult, error) {
		return cachesim.SimulateCorunLaps(cfg, runs[i][0], runs[i][1]), nil
	})
	return res, aOpt, bOpt
}

// pairPrediction is the paper's Eq-1 prediction for one pairing: each
// side's co-run miss ratio composed from both footprint curves, that
// ratio scaled by the side's line-fetch count, and the pair cost, the
// sum of the two counts.
type pairPrediction struct {
	ratio  [2]float64
	misses [2]float64
	cost   float64
}

// predictPair composes the Eq-1 prediction of sides a and b from their
// footprint curves under cfg; ratio and misses follow the argument
// order, so computePair passes its document's sides A and B in
// sorted-digest order. It is the only place a pair cost is computed: a
// pair document's PairCost and a schedule matrix's composed cell come
// from the same operations, so they agree bit for bit. The conversions
// round each product before the sum, so no fused multiply-add can make
// two call sites differ, and the cost does not depend on the argument
// order because floating-point addition is commutative.
func predictPair(cfg cachesim.Config, a, b *footprint.Curve) pairPrediction {
	capacity := float64(cfg.SizeBytes / cfg.LineBytes)
	var p pairPrediction
	p.ratio[0] = footprint.CorunMissRatio(a, b, capacity)
	p.ratio[1] = footprint.CorunMissRatio(b, a, capacity)
	p.misses[0] = float64(p.ratio[0] * float64(a.N))
	p.misses[1] = float64(p.ratio[1] * float64(b.N))
	p.cost = p.misses[0] + p.misses[1]
	return p
}

// handleCorunDoc is GET /v1/corun/{digest}: a pair document by content
// address, mirroring GET /v1/layouts/{digest} for optimization results.
func (s *Server) handleCorunDoc(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if err := checkDigests(digest); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	doc, ok := s.pairs.get(r.Context(), digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached co-run analysis %q", digest))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
