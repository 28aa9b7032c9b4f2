package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/footprint"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
	"codelayout/internal/schedule"
)

// scheduleRequest is the decoded body of POST /v1/schedule: N cached
// layout digests (repeats allowed — the same workload can occupy several
// slots) plus the core/socket topology to place them on and an optional
// cache geometry.
type scheduleRequest struct {
	Digests  []string          `json:"digests"`
	Topology schedule.Topology `json:"topology"`
	Cache    *cachesim.Config  `json:"cache,omitempty"`
}

// ScheduleDoc is the completed output of one schedule job: the pairwise
// Eq-1 interference matrix over the requested digests and the placement
// minimizing its total cost.
type ScheduleDoc struct {
	// Digest is the content address: SHA-256 over the digest list (in
	// request order), the topology, and the cache geometry.
	Digest   string            `json:"digest"`
	Cache    cachesim.Config   `json:"cache"`
	Topology schedule.Topology `json:"topology"`
	Digests  []string          `json:"digests"`
	// Labels names each digest "prog/optimizer" for table rendering.
	Labels []string `json:"labels"`
	// Matrix[i][j] is the pair cost of co-locating digests i and j: the
	// total Eq-1 predicted co-run misses of that pairing, equal bit for
	// bit to the PairCost of its /v1/corun pair document. Symmetric,
	// zero diagonal.
	Matrix [][]float64 `json:"matrix"`
	// Placement is the solver's domain assignment over matrix indices.
	Placement schedule.Placement `json:"placement"`
	// WorstCost is the exhaustive worst-case placement cost when the
	// instance is small enough to enumerate (WorstKnown); the spread
	// between it and Placement.Cost is what interference-aware placement
	// buys.
	WorstCost  float64 `json:"worstCost,omitempty"`
	WorstKnown bool    `json:"worstKnown"`
	// PairsComposed counts the distinct pairs composed for this matrix
	// from the two entries' footprint curves (Eq 1, no simulation, no
	// pair document written); PairsCached counts those whose cost came
	// from a pair document in the content-addressed pair cache.
	PairsComposed int `json:"pairsComposed"`
	PairsCached   int `json:"pairsCached"`
	// PairsComputed counts pair analyses simulated for this matrix. A
	// schedule composes every pair it does not read from the cache, so
	// it is 0; documents stored before schedules composed carry the
	// analyses they ran, and layoutbench's layer replay charges each one
	// a full pair analysis.
	PairsComputed int `json:"pairsComputed"`
	// ElapsedMS is the job wall time (0 for cache hits).
	ElapsedMS float64 `json:"elapsedMS"`
}

// scheduleJobRequest carries a validated /v1/schedule job to its worker.
type scheduleJobRequest struct {
	digests  []string
	entries  []*corunEntry // parallel to digests; repeats share pointers
	topo     schedule.Topology
	cfg      cachesim.Config
	key      string
	deadline time.Time
	ctx      context.Context
}

// scheduleDigest derives the content address of a schedule request. The
// digest list is hashed in request order: permutations are different
// documents (matrix indices differ), only identical requests hit.
func scheduleDigest(digests []string, topo schedule.Topology, cfg cachesim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "layoutd/schedule/v1\ntopo:%dx%d\ncache:%d/%d/%d\n",
		topo.Domains, topo.SlotsPerDomain, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
	for _, d := range digests {
		fmt.Fprintf(h, "d:%s\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// handleSchedule is POST /v1/schedule: compute the pairwise interference
// matrix over N cached layouts and a placement minimizing total Eq-1
// predicted misses. Runs as an async job; the matrix reads the cost of
// any pair whose document the content-addressed pair cache holds and
// composes the rest from footprint curves.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	traceID := requestTraceID(r)
	logger := s.logger.With("trace_id", traceID)
	rec := obs.NewRecorder(s.cfg.SpanBufferSize)
	rec.SetDropHook(s.metrics.spansDropped.Inc)
	ctx := obs.WithTraceID(obs.WithLogger(obs.WithRecorder(r.Context(), rec), logger), traceID)

	var req scheduleRequest
	if err := readJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Digests) < 2 {
		httpError(w, http.StatusBadRequest, errors.New("need at least 2 layout digests to schedule"))
		return
	}
	if len(req.Digests) > s.cfg.MaxScheduleDigests {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%d digests exceed the per-request bound %d", len(req.Digests), s.cfg.MaxScheduleDigests))
		return
	}
	cfg, err := corunConfig(req.Cache)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Topology.Validate(len(req.Digests)); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Materialize each distinct digest once; repeated digests share the
	// entry (and its memoized curves).
	entries, status, err := s.resolveEntries(ctx, req.Digests)
	if err != nil {
		httpError(w, status, err)
		return
	}
	s.metrics.scheduleJobs.Inc()

	jr := &scheduleJobRequest{
		digests:  req.Digests,
		entries:  entries,
		topo:     req.Topology,
		cfg:      cfg,
		key:      scheduleDigest(req.Digests, req.Topology, cfg),
		deadline: time.Now().Add(s.cfg.JobTimeout),
	}
	jobCtx, jobCancel := context.WithCancel(context.Background())
	jr.ctx = jobCtx

	j := &Job{
		id:       s.newJobID(),
		kind:     jobKindSchedule,
		status:   StatusQueued,
		digest:   jr.key,
		created:  time.Now(),
		cancel:   jobCancel,
		traceID:  traceID,
		rec:      rec,
		progName: fmt.Sprintf("schedule[%d]", len(req.Digests)),
	}
	j.logger = logger.With("job", j.id)

	if doc, ok := s.schedules.get(ctx, jr.key); ok {
		j.cached = true
		s.finish(j, StatusDone, doc, nil)
		s.storeJob(j)
		s.metrics.accepted.Inc()
		writeJSON(w, http.StatusOK, j.view())
		return
	}

	s.storeJob(j)
	accepted := s.pool.TrySubmit(func(poolCtx context.Context) {
		s.runScheduleJob(poolCtx, j, jr)
	})
	if !accepted {
		s.dropJob(j.id)
		jobCancel()
		s.metrics.rejected.Inc()
		logger.Warn("schedule job rejected: queue full", "job", j.id)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, errors.New("job queue full"))
		return
	}
	s.metrics.accepted.Inc()
	j.logger.Info("schedule job accepted",
		"digests", len(req.Digests), "topology", req.Topology, "key", jr.key)
	writeJSON(w, http.StatusAccepted, j.view())
}

// runScheduleJob is the pool task behind POST /v1/schedule: assemble the
// interference matrix (one cost per distinct digest pair, read from the
// pair cache or composed), then solve the placement.
func (s *Server) runScheduleJob(poolCtx context.Context, j *Job, req *scheduleJobRequest) {
	ctx, cleanup, ok := s.beginJob(poolCtx, j, req.deadline, req.ctx)
	if !ok {
		return
	}
	defer cleanup()
	start := time.Now()
	doc, err := s.computeSchedule(ctx, req)
	if err != nil {
		s.failOrCancel(j, err)
		return
	}
	doc.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.schedules.put(ctx, req.key, doc)
	s.finish(j, StatusDone, doc, nil)
}

func (s *Server) computeSchedule(ctx context.Context, req *scheduleJobRequest) (*ScheduleDoc, error) {
	n := len(req.entries)
	msp := obs.StartSpan(ctx, "schedule.matrix")

	// Collect the distinct pair keys: repeated digests mean one pair can
	// fill several matrix cells, so each key is looked up or composed
	// once. Self-cells (i == j) are the zero diagonal, but the same
	// *digest* at two indices is a real self-pairing.
	type cell struct{ i, j int }
	firstCell := make(map[string]cell)
	keyAt := make([][]string, n)
	for i := range keyAt {
		keyAt[i] = make([]string, n)
	}
	for i := 0; i < n; i++ {
		for jx := i + 1; jx < n; jx++ {
			k := corunDigest(req.entries[i].res.Digest, req.entries[jx].res.Digest, req.cfg)
			keyAt[i][jx] = k
			keyAt[jx][i] = k
			if _, ok := firstCell[k]; !ok {
				firstCell[k] = cell{i, jx}
			}
		}
	}
	keys := make([]string, 0, len(firstCell))
	for k := range firstCell {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// A pair whose document is cached reads its PairCost. Any other is
	// composed from the two entries' footprint curves and writes no pair
	// document; it still counts as a pair-cache miss.
	costs := make(map[string]float64, len(keys))
	var composed []string
	for _, k := range keys {
		if doc, ok := s.pairs.get(ctx, k); ok {
			s.metrics.pairHits.Inc()
			costs[k] = doc.PairCost
			continue
		}
		s.metrics.pairMisses.Inc()
		composed = append(composed, k)
	}

	// Each distinct entry a composed pair needs gets its curve once. The
	// entries fan out across the job's analysis budget and each curve is
	// computed serially, so the job's concurrency stays bounded by
	// OptWorkers.
	slot := make(map[*corunEntry]int)
	var need []*corunEntry
	for _, k := range composed {
		c := firstCell[k]
		for _, e := range [2]*corunEntry{req.entries[c.i], req.entries[c.j]} {
			if _, ok := slot[e]; !ok {
				slot[e] = len(need)
				need = append(need, e)
			}
		}
	}
	curves := make([]*footprint.Curve, len(need))
	err := parallel.ForEachCtx(ctx, s.cfg.OptWorkers, len(need), func(ctx context.Context, i int) error {
		c, err := s.matrixCurve(ctx, need[i], req.cfg.LineBytes)
		curves[i] = c
		return err
	})
	if err != nil {
		msp.End()
		return nil, err
	}
	for _, k := range composed {
		c := firstCell[k]
		a, b := req.entries[c.i], req.entries[c.j]
		costs[k] = predictPair(req.cfg, curves[slot[a]], curves[slot[b]]).cost
		s.metrics.schedulePairs.Inc()
	}

	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
		for jx := range matrix[i] {
			if jx != i {
				matrix[i][jx] = costs[keyAt[i][jx]]
			}
		}
	}
	msp.SetAttr("pairs", int64(len(keys)))
	msp.SetAttr("composed", int64(len(composed)))
	msp.End()

	ssp := obs.StartSpan(ctx, "schedule.solve")
	placement, err := schedule.Solve(ctx, matrix, req.topo)
	if err != nil {
		ssp.End()
		return nil, err
	}
	worst, worstKnown := schedule.Worst(matrix, req.topo)
	ssp.SetAttr("exact", boolAttr(placement.Exact))
	ssp.End()

	labels := make([]string, n)
	for i, e := range req.entries {
		labels[i] = e.res.Prog + "/" + e.res.Optimizer
	}
	doc := &ScheduleDoc{
		Digest:        req.key,
		Cache:         req.cfg,
		Topology:      req.topo,
		Digests:       req.digests,
		Labels:        labels,
		Matrix:        matrix,
		Placement:     placement,
		WorstKnown:    worstKnown,
		PairsComposed: len(composed),
		PairsCached:   len(keys) - len(composed),
	}
	if worstKnown {
		doc.WorstCost = worst.Cost
	}
	return doc, nil
}

// scheduleCurve is the matrix's per-entry work: the entry's memoized
// footprint curve at lineBytes, computed serially.
func scheduleCurve(ctx context.Context, e *corunEntry, lineBytes int) (*footprint.Curve, error) {
	c := e.curve(ctx, lineBytes, 1, nil)
	return c, ctx.Err()
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
