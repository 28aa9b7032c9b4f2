// Package server implements layoutd, the layout-optimization service:
// an HTTP layer over the repository's trace format and optimizer suite.
// Clients stream a CLTR binary trace to POST /v1/jobs together with a
// suite-program name and an optimizer name. Every submission takes one
// ingest path (see stream.go): the job is admitted to a bounded worker
// pool (parallel.Pool) before the body is read, with per-job deadline
// and backpressure (429 when the queue is full); the upload is decoded
// incrementally (trace.Decoder) and hashed as it arrives; and at the
// seal the result is looked up in a content-addressed cache keyed by
// the SHA-256 of the trace bytes plus the optimizer and its parameters,
// so resubmitting the same profile answers 200 at once and never
// recomputes. Only a miss reaches a worker.
//
// Optimizations, co-run pair analyses and schedules share one job
// lifecycle: newJob stamps the job's deadline, admit queues it or
// answers 429, a document its kind's cache holds answers 200 at once,
// and runJob, every kind's pool task, runs the kind's work and
// finishes the job. Only the work differs by kind.
//
// A trace whose decoded form fits Config.StreamWindow is held whole and
// analyzed after the seal. A larger one is analyzed while it uploads
// when the optimizer supports feed mode: decoded chunks flow through a
// bounded ring into the analysis kernels, so memory stays O(window) no
// matter how large the trace. Every regime's result is byte-identical
// to the buffered pipeline's. Config.Uploads additionally enables
// resumable chunked uploads (see uploads.go) for traces too large or
// too flaky to submit in one request; their finalize takes the same
// ingest path. GET /metrics exposes counters and per-optimizer latency
// histograms with no external dependencies.
//
// Observability (internal/obs) is threaded through the whole job path:
// every submission gets a trace_id carried on context.Context into the
// pool workers, the optimizer pipeline, and the store; pipeline phases
// are recorded as spans in a bounded per-job buffer and folded into
// per-phase latency histograms; and all metrics live on one
// obs.Registry rendered at /metrics.
//
// Endpoints:
//
//	POST /v1/jobs?prog=<suite program>&opt=<optimizer>[&prune=<topN>]
//	     body: raw CLTR trace, or multipart/form-data with a "trace" file
//	GET  /v1/jobs/{id}        job status and, when done, the result
//	GET  /v1/jobs/{id}/trace  the job's span timeline
//	DELETE /v1/jobs/{id}      cancel a still-queued job
//	POST /v1/uploads          create a resumable upload session
//	GET  /v1/uploads/{id}     session's durable offset (resume point)
//	PATCH /v1/uploads/{id}    append bytes at Upload-Offset
//	DELETE /v1/uploads/{id}   discard a session
//	POST /v1/uploads/{id}/finalize?prog=&opt=[&prune=]  submit the spooled trace
//	GET  /v1/layouts/{digest} cached result by content address
//	GET  /v1/optimizers       the optimizer registry
//	GET  /v1/debug/jobs       ring of recent job summaries
//	GET  /v1/store            admin: list blobs held by the durable tier
//	GET  /v1/store/{key}      admin: raw blob bytes (peer replication reads)
//	DELETE /v1/store/{key}    admin: evict a blob from both tiers
//	PUT  /v1/replicate/{key}  peer replication push, digest-authenticated
//	GET  /healthz             liveness (JSON: status, node_id, build)
//	GET  /metrics             Prometheus-format text
//
// With Config.Cluster set, the node is one member of a static layoutd
// cluster (internal/cluster): ownership of every content address is
// decided by rendezvous hashing, non-owners transparently forward
// submissions and reads to the owner, and completed results replicate
// write-behind to the key's replica set, so any node serves any digest
// and a killed owner leaves its results fetchable from replicas.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"mime/multipart"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/cluster"
	"codelayout/internal/core"
	"codelayout/internal/footprint"
	"codelayout/internal/ir"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
	"codelayout/internal/store"
	"codelayout/internal/trace"
)

// Config sizes the service.
type Config struct {
	// JobWorkers bounds concurrent optimizations; <= 0 means all cores.
	JobWorkers int
	// QueueDepth bounds jobs accepted but not yet running; submissions
	// beyond it get 429. <= 0 means DefaultQueueDepth.
	QueueDepth int
	// JobTimeout bounds a job's life from acceptance (queue wait
	// included) to completion; 0 means DefaultJobTimeout.
	JobTimeout time.Duration
	// OptWorkers is the analysis concurrency inside one job (the
	// core.Optimizer Workers knob); 0 means all cores. Serving many
	// concurrent jobs usually wants 1 here and parallelism across jobs.
	OptWorkers int
	// MaxTraceBytes caps an upload; 0 means DefaultMaxTraceBytes.
	MaxTraceBytes int64
	// JobTTL bounds how long a completed or failed job's status stays
	// queryable at /v1/jobs/{id}; 0 means DefaultJobTTL. Results outlive
	// their job entry in the content-addressed cache (/v1/layouts).
	JobTTL time.Duration
	// MaxJobs bounds the tracked-job map; when exceeded, the oldest
	// terminal jobs are evicted first. 0 means DefaultMaxJobs. Queued and
	// running jobs are never evicted.
	MaxJobs int
	// Store is the optional durable result tier (internal/store). The
	// server takes ownership: Shutdown drains its write-behind queue and
	// closes it. Nil means the cache is memory-only.
	Store *store.Store
	// Logger receives structured request/job logs; nil means silent
	// (obs.NopLogger). Per-job loggers derived from it carry trace_id
	// and job id on every line.
	Logger *slog.Logger
	// SpanBufferSize bounds each job's span recorder; spans beyond it
	// are dropped and counted in layoutd_spans_dropped_total. 0 means
	// obs.DefaultSpanCapacity.
	SpanBufferSize int
	// TraceCacheEntries bounds the in-memory tier of retained decoded
	// traces (the inputs /v1/corun and /v1/schedule replay); 0 means
	// DefaultTraceCacheEntries. With a Store, evicted traces remain
	// reachable from disk.
	TraceCacheEntries int
	// MaxScheduleDigests bounds the layouts one /v1/schedule request may
	// place; 0 means DefaultMaxScheduleDigests.
	MaxScheduleDigests int
	// StreamWindow bounds the decoded trace one submission buffers, in
	// bytes; <= 0 means DefaultStreamWindow. A trace whose decoded form
	// fits is held whole and analyzed only after its upload missed the
	// result cache. A larger one is analyzed while it arrives when its
	// optimizer supports feed mode, with at most this much decoded trace
	// in flight (the TCP stream stalls when the analysis falls behind);
	// any other optimizer decodes its spool after the upload.
	StreamWindow int64
	// Uploads is the optional resumable-upload session manager backing
	// POST /v1/uploads and friends; the chunked path for traces too large
	// or too flaky to submit in one request. Nil disables the endpoints.
	Uploads *store.Uploads
	// Cluster makes this node a member of a static layoutd cluster. The
	// server takes ownership: it starts the cluster's background work and
	// closes it on Shutdown. Nil means single-node.
	Cluster *cluster.Cluster
	// NodeID names this node in /healthz; empty means the cluster self ID
	// (or omitted when single-node).
	NodeID string
	// EventRing bounds the structured event log at /v1/debug/events;
	// 0 means DefaultEventRing.
	EventRing int
	// RuntimeSampleInterval is the runtime-telemetry sampler's tick
	// period; 0 means obs.DefaultRuntimeSampleInterval. The sampler is
	// always on: it feeds the layoutd_runtime_* gauges and the bounded
	// ring at /v1/debug/runtime.
	RuntimeSampleInterval time.Duration
	// RuntimeRing bounds the retained runtime samples; 0 means
	// obs.DefaultRuntimeRing.
	RuntimeRing int
}

// Defaults for zero Config fields.
const (
	DefaultJobTimeout         = 5 * time.Minute
	DefaultMaxTraceBytes      = 64 << 20
	DefaultQueueDepth         = 64
	DefaultJobTTL             = 15 * time.Minute
	DefaultMaxJobs            = 4096
	DefaultTraceCacheEntries  = 32
	DefaultMaxScheduleDigests = 32
	// DefaultStreamWindow holds a trace of up to 2^21 references
	// (8 MiB decoded) whole, for analysis after its upload.
	DefaultStreamWindow = 8 << 20
)

// Server is the layoutd service state. Create with New, serve
// Handler(), stop with Shutdown.
type Server struct {
	cfg       Config
	pool      *parallel.Pool
	cache     *tieredCache[Result]
	traces    *tieredCache[trace.Trace]
	pairs     *tieredCache[CorunDoc]
	schedules *tieredCache[ScheduleDoc]
	disk      *store.Store // nil: memory-only
	metrics   *serverMetrics
	logger    *slog.Logger
	ring      *obs.Ring[jobSummary]
	events    *eventRing
	runtime   *obs.RuntimeSampler
	fwdlog    *forwardLog
	mux       *http.ServeMux

	// cluster is the peer group this node belongs to; nil single-node.
	// peerClient carries forwarded requests to peers.
	cluster    *cluster.Cluster
	peerClient *http.Client

	// uploads holds the resumable-upload sessions (nil: endpoints off).
	uploads *store.Uploads
	// streamBytes counts decoded chunk bytes in flight across streaming
	// submissions (the layoutd_stream_buffered_bytes gauge); streamPeak
	// is its high-water mark.
	streamBytes atomic.Int64
	streamPeak  atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	progs  map[string]*progEntry
	nextID atomic.Int64

	// arena recycles the analysis kernels' buffers across jobs. It is
	// a set of pools, safe for concurrent jobs, so a steady request
	// stream reuses the same hot-path allocations instead of re-growing
	// them per job.
	arena core.Arena

	// optimize is the one optimization pipeline (runOptimize); tests
	// substitute it to control timing and failure modes.
	optimize func(ctx context.Context, req *jobRequest) (*Result, error)

	// pairAnalysis runs one co-run pair analysis; tests substitute it to
	// control timing and failure modes (e.g. blocking a co-run job to
	// exercise cancellation).
	pairAnalysis func(ctx context.Context, cfg cachesim.Config, a, b *corunEntry, workers int) (*CorunDoc, error)

	// matrixCurve is a schedule matrix's per-entry work, one footprint
	// curve (scheduleCurve); tests substitute it to block a schedule job
	// mid-matrix and exercise cancellation.
	matrixCurve func(ctx context.Context, e *corunEntry, lineBytes int) (*footprint.Curve, error)

	// now returns the current time; tests substitute it to drive the
	// retention clock.
	now func() time.Time
}

// progEntry lazily generates one suite program, shared by every job
// that names it.
type progEntry struct {
	once sync.Once
	p    *ir.Program
	err  error
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	if cfg.MaxTraceBytes <= 0 {
		cfg.MaxTraceBytes = DefaultMaxTraceBytes
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = DefaultJobTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger
	}
	if cfg.MaxScheduleDigests <= 0 {
		cfg.MaxScheduleDigests = DefaultMaxScheduleDigests
	}
	if cfg.TraceCacheEntries <= 0 {
		cfg.TraceCacheEntries = DefaultTraceCacheEntries
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = DefaultStreamWindow
	}
	// The durable tier the caches see: the raw store when single-node,
	// or the cluster wrapper — which adds peer fetch-through on local
	// miss and write-behind replication on every put. A nil *store.Store
	// must never be wrapped into a non-nil plain interface, so the
	// single-node branch assigns only when the store exists.
	var blobs blobStore
	var cb *clusterBlobs
	if cfg.Cluster != nil {
		cb = &clusterBlobs{disk: cfg.Store, cl: cfg.Cluster}
		blobs = cb
	} else if cfg.Store != nil {
		blobs = cfg.Store
	}
	s := &Server{
		cfg:       cfg,
		pool:      parallel.NewPool(cfg.JobWorkers, cfg.QueueDepth),
		cache:     newTieredCache(resultStoreKey, maxCachedDocs, blobs, encodeJSON[Result], decodeResult),
		traces:    newTieredCache(traceStoreKey, cfg.TraceCacheEntries, blobs, encodeCLTR, decodeCLTR),
		pairs:     newTieredCache(pairStoreKey, maxCachedDocs, blobs, encodeJSON[CorunDoc], decodeJSON[CorunDoc]),
		schedules: newTieredCache(scheduleStoreKey, maxCachedDocs, blobs, encodeJSON[ScheduleDoc], decodeJSON[ScheduleDoc]),
		disk:      cfg.Store,
		uploads:   cfg.Uploads,
		cluster:   cfg.Cluster,
		logger:    cfg.Logger,
		ring:      obs.NewRing[jobSummary](debugJobRing),
		events:    newEventRing(cfg.EventRing),
		runtime:   obs.NewRuntimeSampler(cfg.RuntimeSampleInterval, cfg.RuntimeRing),
		fwdlog:    newForwardLog(),
		jobs:      make(map[string]*Job),
		progs:     make(map[string]*progEntry),
	}
	if cb != nil {
		cb.srv = s
	}
	s.metrics = newServerMetrics(s)
	s.events.counter = s.metrics.events
	if s.disk != nil {
		// Durability transitions (breaker trips/recoveries, quarantines)
		// land in the event ring alongside the cluster's.
		s.disk.SetEventHook(func(kind, detail string) {
			s.events.record(kind, s.nodeID(), detail)
		})
	}
	s.runtime.Start()
	if cl := s.cluster; cl != nil {
		s.peerClient = &http.Client{Timeout: 30 * time.Second}
		// Per-peer health gauges: 2 = up, 1 = degraded, 0 = down.
		// Initialize every peer optimistically up (matching the cluster's
		// starting view) so the series exist before the first poll.
		for _, p := range cl.Peers() {
			if p.ID != cl.SelfID() {
				s.metrics.peerHealth.With(p.ID).Set(2)
			}
		}
		cl.SetStateHook(func(id string, st cluster.State) {
			s.metrics.peerHealth.With(id).Set(int64(2 - st))
			kind := eventPeerUp
			switch st {
			case cluster.StateDegraded:
				kind = eventPeerDegraded
			case cluster.StateDown:
				kind = eventPeerDown
			}
			s.events.record(kind, id, "")
		})
		cl.SetReplicateHook(func(peer, key string, lag, dur time.Duration, err error) {
			s.metrics.replLag.Observe(lag.Seconds())
			s.metrics.phase.With("store.replicate").Observe(dur.Seconds())
		})
		// Initialize the per-peer drop series at 0 so dashboards and the
		// chaos smoke can read them before the first drop.
		for _, p := range cl.Peers() {
			if p.ID != cl.SelfID() {
				s.metrics.replicationDropped.With(p.ID).Add(0)
			}
		}
		cl.SetDropHook(func(peer, key string) {
			s.metrics.replicationDropped.With(peer).Inc()
			s.events.record(eventReplicationDrop, peer, key)
			s.logger.Warn("replication enqueue dropped; anti-entropy will repair",
				"key", key, "peer", peer)
		})
		cl.SetAntiEntropyHook(func(sw cluster.AntiEntropySweep) {
			s.metrics.phase.With("antientropy.sweep").Observe(sw.Duration.Seconds())
			if sw.Repaired > 0 {
				s.events.record(eventSweepRepair, s.nodeID(),
					fmt.Sprintf("repaired %d keys (%d bytes) from %d peers", sw.Repaired, sw.Bytes, sw.Peers))
				s.logger.Info("anti-entropy sweep repaired keys",
					"repaired", sw.Repaired, "bytes", sw.Bytes,
					"peers", sw.Peers, "truncated", sw.Truncated)
			}
		})
		if s.disk != nil {
			disk := s.disk
			cl.SetAntiEntropySource(
				func() []string {
					if disk.State() != store.StateOK {
						// Degraded: what memory holds is not durable here,
						// so this node repairs nobody until its disk heals.
						return nil
					}
					ents := disk.Entries()
					keys := make([]string, len(ents))
					for i, e := range ents {
						keys[i] = e.Key
					}
					return keys
				},
				func(key string) ([]byte, bool) { return disk.Get(key) },
			)
		}
		cl.Start()
	}
	s.pool.SetQueueWaitHook(func(wait time.Duration) {
		s.metrics.queueWait.Observe(wait.Seconds())
	})
	s.optimize = s.runOptimize
	s.pairAnalysis = s.computePair
	s.matrixCurve = scheduleCurve
	s.now = time.Now
	// The forward* wrappers are identity when Cluster is nil; clustered,
	// they route each request to the owner of its content address (or the
	// node named by a job ID). The admin store endpoints and /v1/replicate
	// never forward: each node answers for its own disk.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.forwardBody(s.cfg.MaxTraceBytes, traceRouteKey, s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.forwardJobID(s.handleJob))
	// The trace route is NOT wrapped in forwardJobID: cross-node trace
	// assembly (fwdtrace.go) fetches the owner's timeline itself and
	// merges the local forward spans into one document.
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.forwardJobID(s.handleCancel))
	mux.HandleFunc("GET /v1/layouts/{digest}", s.forwardDigest(s.handleLayout))
	mux.HandleFunc("POST /v1/corun", s.forwardBody(maxJSONBody, corunRouteKey, s.handleCorun))
	mux.HandleFunc("GET /v1/corun/{digest}", s.forwardDigest(s.handleCorunDoc))
	mux.HandleFunc("POST /v1/schedule", s.forwardBody(maxJSONBody, scheduleRouteKey, s.handleSchedule))
	// Resumable uploads are deliberately not forwarded: a session's
	// spool lives on the node that created it, so the whole PATCH
	// sequence and the finalize must land there. The finalized job's
	// result is content-addressed and replicates normally.
	if s.uploads != nil {
		mux.HandleFunc("POST /v1/uploads", s.handleUploadCreate)
		mux.HandleFunc("GET /v1/uploads/{id}", s.handleUploadStatus)
		mux.HandleFunc("PATCH /v1/uploads/{id}", s.handleUploadPatch)
		mux.HandleFunc("DELETE /v1/uploads/{id}", s.handleUploadDelete)
		mux.HandleFunc("POST /v1/uploads/{id}/finalize", s.handleUploadFinalize)
	}
	mux.HandleFunc("GET /v1/optimizers", s.handleOptimizers)
	mux.HandleFunc("GET /v1/debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /v1/debug/events", s.handleDebugEvents)
	mux.HandleFunc("GET /v1/debug/runtime", s.handleDebugRuntime)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	mux.HandleFunc("GET /v1/store", s.handleStoreList)
	mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet)
	mux.HandleFunc("DELETE /v1/store/{key}", s.handleStoreDelete)
	mux.HandleFunc("PUT /v1/replicate/{key}", s.handleReplicate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops accepting jobs, drains queued and in-flight work
// bounded by ctx (the -drain-timeout flag in cmd/layoutd), then drains
// and closes the durable store so completed results hit the disk.
// Submissions arriving after Shutdown get 429. A non-nil error means
// the drain abandoned wedged work and the process should exit nonzero.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.pool.Shutdown(ctx)
	s.runtime.Stop()
	if s.cluster != nil {
		// Stop health polling and drain the replication worker before the
		// disk closes underneath it.
		s.cluster.Close()
	}
	if s.disk != nil {
		s.disk.Close()
	}
	return err
}

// StoreState reports the durable tier's breaker state; ok-and-false
// when the server runs memory-only.
func (s *Server) StoreState() (store.State, bool) {
	if s.disk == nil {
		return store.StateOK, false
	}
	return s.disk.State(), true
}

// ---- submission ----

// submission bundles one job submission's observability handles and
// the names its debug summary shows; newJob mints every job from one.
// An optimization's also carries its validated parameters, for the
// ingest behind POST /v1/jobs and the resumable-upload finalize.
type submission struct {
	traceID string
	rec     *obs.Recorder
	logger  *slog.Logger

	prog      *ir.Program
	progName  string
	opt       core.Optimizer
	optName   string
	pruneTopN int
}

// requestTraceID adopts the caller's trace ID when the request carries
// a valid W3C traceparent header (standard 32-hex or legacy 16-hex
// trace ID), else mints a fresh one — so a job submitted through a
// non-owner keeps one trace ID end to end across the forward hop.
func requestTraceID(r *http.Request) string {
	if tp, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		return tp.TraceID
	}
	return obs.NewTraceID()
}

// newSubmissionCtx mints the trace ID, logger, and bounded span
// recorder every submission carries from its first byte, so even the
// decode of a rejected upload is attributed.
func (s *Server) newSubmissionCtx(r *http.Request) (context.Context, *submission) {
	traceID := requestTraceID(r)
	logger := s.logger.With("trace_id", traceID)
	rec := obs.NewRecorder(s.cfg.SpanBufferSize)
	rec.SetDropHook(s.metrics.spansDropped.Inc)
	ctx := obs.WithTraceID(obs.WithLogger(obs.WithRecorder(r.Context(), rec), logger), traceID)
	return ctx, &submission{traceID: traceID, rec: rec, logger: logger}
}

// resolve validates the request parameters into the submission.
func (sub *submission) resolve(s *Server, progName, optName, pruneStr string) error {
	if progName == "" || optName == "" {
		return errors.New("missing required parameter: prog and opt")
	}
	if pruneStr != "" {
		n, err := strconv.Atoi(pruneStr)
		if err != nil || n < 0 {
			return fmt.Errorf("invalid prune %q", pruneStr)
		}
		sub.pruneTopN = n
	}
	opt, err := core.OptimizerByName(optName)
	if err != nil {
		return err
	}
	prog, err := s.program(progName)
	if err != nil {
		return err
	}
	sub.prog, sub.progName = prog, progName
	sub.opt, sub.optName = opt, optName
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	ctx, sub := s.newSubmissionCtx(r)

	progName := r.URL.Query().Get("prog")
	optName := r.URL.Query().Get("opt")
	pruneStr := r.URL.Query().Get("prune")

	body, cleanup, err := s.traceBody(w, r, &progName, &optName, &pruneStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	defer cleanup()

	if err := sub.resolve(s, progName, optName, pruneStr); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spool, err := os.CreateTemp(s.spoolDir(), "stream-*.cltr")
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("creating spool: %w", err))
		return
	}
	s.ingest(ctx, w, sub, body, spool, spool.Name())
}

// maxFormFieldBytes bounds the prog/opt/prune multipart form fields;
// longer values are rejected with 400 rather than truncated.
const maxFormFieldBytes = 256

// traceBody returns the reader holding the CLTR bytes, resolving
// multipart uploads without buffering the trace part. For multipart
// bodies, form fields named prog/opt/prune that appear before the
// "trace" part override empty query parameters.
func (s *Server) traceBody(w http.ResponseWriter, r *http.Request, progName, optName, pruneStr *string) (io.Reader, func(), error) {
	limited := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	cleanup := func() { limited.Close() }
	ct := r.Header.Get("Content-Type")
	mt, params, _ := mime.ParseMediaType(ct)
	if mt != "multipart/form-data" {
		return limited, cleanup, nil
	}
	boundary := params["boundary"]
	if boundary == "" {
		return nil, cleanup, errors.New("multipart body without boundary")
	}
	mr := multipart.NewReader(limited, boundary)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			return nil, cleanup, errors.New(`multipart body has no "trace" part`)
		}
		if err != nil {
			return nil, cleanup, fmt.Errorf("reading multipart body: %w", err)
		}
		switch part.FormName() {
		case "trace":
			return part, cleanup, nil
		case "prog", "opt", "prune":
			// Read one byte past the field bound so an oversize value is
			// detected and rejected instead of silently truncated to a
			// plausible-looking (wrong) parameter.
			val, err := io.ReadAll(io.LimitReader(part, maxFormFieldBytes+1))
			if err != nil {
				return nil, cleanup, fmt.Errorf("reading %s field: %w", part.FormName(), err)
			}
			if len(val) > maxFormFieldBytes {
				return nil, cleanup, fmt.Errorf("multipart field %s exceeds %d bytes", part.FormName(), maxFormFieldBytes)
			}
			switch part.FormName() {
			case "prog":
				setIfEmpty(progName, string(val))
			case "opt":
				setIfEmpty(optName, string(val))
			case "prune":
				setIfEmpty(pruneStr, string(val))
			}
		}
	}
}

func setIfEmpty(dst *string, v string) {
	if *dst == "" {
		*dst = v
	}
}

// badBodyStatus maps a body-read failure to 413 when the upload cap
// tripped, 400 otherwise.
func badBodyStatus(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// maxBodyPrealloc caps the bytes readBody reserves before a body's
// payload arrives, as maxHeldPrealloc caps a held trace's references,
// so a false Content-Length cannot force a large allocation.
const maxBodyPrealloc = 4 << 20

// readBody reads a whole request body of at most limit bytes into a
// buffer sized from its Content-Length (up to maxBodyPrealloc; past
// that it doubles as bytes arrive), so a body that matches its header
// is copied once. A declared length over the limit is refused before
// any byte is read, and a body whose length differs from its header
// fails. badBodyStatus maps every error to its status.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	// MinRead spare bytes let the last read see EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxBodyPrealloc)+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, err
	}
	if r.ContentLength >= 0 && int64(buf.Len()) != r.ContentLength {
		return nil, fmt.Errorf("request body holds %d bytes, not its declared %d", buf.Len(), r.ContentLength)
	}
	return buf.Bytes(), nil
}

// ---- job execution ----

// newJob mints a queued job of kind for sub, under its content address
// when the request already names it: the job's own cancelable context,
// and its deadline, JobTimeout after its creation, so queue wait counts
// against it.
func (s *Server) newJob(sub *submission, kind, digest string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	now := time.Now()
	j := &Job{
		id:       s.newJobID(),
		kind:     kind,
		status:   StatusQueued,
		digest:   digest,
		created:  now,
		ctx:      ctx,
		cancel:   cancel,
		deadline: now.Add(s.cfg.JobTimeout),
		traceID:  sub.traceID,
		rec:      sub.rec,
		progName: sub.progName,
		optName:  sub.optName,
	}
	j.logger = sub.logger.With("job", j.id)
	return j
}

// jobWork is what one job kind does once its job runs: an
// optimization, a pair analysis or a schedule. It runs on the job's
// pipeline context, times itself into its document, puts the document
// in its kind's cache and returns it.
type jobWork func(ctx context.Context) (any, error)

// admit stores a queued job and submits runJob as its pool task. On a
// full queue it drops and cancels the job, counts the rejection and
// answers 429 with Retry-After; it reports whether the job was
// admitted.
func (s *Server) admit(w http.ResponseWriter, j *Job, work jobWork, release func()) bool {
	s.storeJob(j)
	if s.pool.TrySubmit(func(poolCtx context.Context) { s.runJob(poolCtx, j, work, release) }) {
		s.metrics.accepted.Inc()
		return true
	}
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
	j.cancel()
	s.metrics.rejected.Inc()
	j.logger.Warn("job rejected: queue full", "kind", j.kind)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, errors.New("job queue full"))
	return false
}

// answerCached answers a co-run or schedule submission whose document
// its cache holds: the job finishes done and cached before it is
// stored, and the request gets 200 with it. The hit is accepted but
// never queued.
func (s *Server) answerCached(w http.ResponseWriter, j *Job, doc any) {
	j.cached = true
	s.finish(j, StatusDone, doc, nil)
	s.storeJob(j)
	s.metrics.accepted.Inc()
	writeJSON(w, http.StatusOK, j.view())
}

// runJob is every job's pool task: start the job, run its kind's work
// and finish the job with the work's document or error. release, when
// set, frees what the work holds (an optimization's upload) once the
// task ends, run or not; the job never holds it, so nothing of the work
// outlives the task. The job's recorder, logger and trace ID ride the
// pipeline context from here down.
func (s *Server) runJob(poolCtx context.Context, j *Job, work jobWork, release func()) {
	if release != nil {
		defer release()
	}
	ctx, cleanup, ok := s.beginJob(poolCtx, j)
	if !ok {
		return
	}
	defer cleanup()
	doc, err := work(ctx)
	if err != nil {
		s.failOrCancel(j, err)
		return
	}
	s.finish(j, StatusDone, doc, nil)
}

// beginJob is the front half of runJob: move the job to running,
// record its queue wait into its timeline, and derive the pipeline
// context from the job's own, so a cancel reaches the pipeline the
// moment it fires, bounded by the deadline and stopped with the pool.
// It reports false if the work must be skipped — canceled while queued
// (the DELETE handler finished it), or expired in the queue (finished
// here as failed); on true the caller owns cleanup and must defer it.
func (s *Server) beginJob(poolCtx context.Context, j *Job) (context.Context, func(), bool) {
	if !j.tryStart() {
		return nil, nil, false
	}
	// The time between acceptance and this worker picking the task up
	// is queue wait; record it into the job's own timeline (the pool
	// hook feeds the histogram).
	if j.rec != nil {
		j.rec.Record("queue.wait", j.created, time.Since(j.created))
	}
	ctx, cancel := context.WithDeadline(j.ctx, j.deadline)
	stop := context.AfterFunc(poolCtx, cancel)
	cleanup := func() { stop(); cancel() }
	ctx = obs.WithTraceID(obs.WithLogger(obs.WithRecorder(ctx, j.rec), j.logger), j.traceID)
	err := ctx.Err()
	if err == nil {
		err = poolCtx.Err() // the AfterFunc cancels ctx only later
	}
	if err != nil {
		cleanup()
		s.finish(j, StatusFailed, nil, fmt.Errorf("job expired before running: %w", err))
		return nil, nil, false
	}
	j.logger.Info("job started",
		"queue_wait_ms", float64(time.Since(j.created))/float64(time.Millisecond))
	return ctx, cleanup, true
}

// failOrCancel finishes a job whose pipeline returned an error: a job
// the client moved to canceling lands in canceled, anything else in
// failed.
func (s *Server) failOrCancel(j *Job, err error) {
	status := StatusFailed
	if j.statusNow() == StatusCanceling {
		status, err = StatusCanceled, errors.New("canceled while running")
	}
	s.finish(j, status, nil, err)
}

// finish is the single exit point for every job. Exactly one call
// finishes a job: the first to claim it, which is its owner — the
// worker that started it, the DELETE handler that canceled it while
// queued, or the handler that answered it from a cache; any later call
// changes nothing. It folds the job's spans into the per-phase
// histograms and compacts its recorder, counts the outcome, releases the job's in-flight bytes
// and pushes its summary onto the debug ring — all before it publishes
// the terminal status, so a client that reads the status finds every
// one of them — then logs the outcome.
func (s *Server) finish(j *Job, status string, doc any, err error) {
	s.finishJob(j, false, status, doc, err)
}

// finishJob is finish; hit marks an optimization job answered from the
// result cache, which its claim marks cached in the same step, so no
// other owner can finish the job in between. It reports whether this
// call finished the job.
func (s *Server) finishJob(j *Job, hit bool, status string, doc any, err error) bool {
	v, held, ok := j.claim(hit)
	if !ok {
		return false
	}
	var spans []obs.SpanData
	if j.rec != nil {
		spans, _ = j.rec.Snapshot()
		// The job keeps its recorder for GET /v1/jobs/{id}/trace until
		// it is evicted; keep only the slots it used.
		j.rec.Compact()
	}
	s.metrics.observePhases(spans)
	switch {
	case status == StatusFailed:
		s.metrics.failed.Inc()
	case status == StatusCanceled:
		s.metrics.canceled.Inc()
	case hit:
		s.metrics.cacheHits.Inc()
	case !v.Cached:
		s.metrics.completed.Inc()
	}
	s.metrics.inflightBytes.Add(-held)
	sum := jobSummary{
		ID:        v.ID,
		Kind:      v.Kind,
		TraceID:   v.TraceID,
		Status:    status,
		Prog:      j.progName,
		Optimizer: j.optName,
		Cached:    v.Cached,
	}
	if err != nil {
		sum.Error = err.Error()
	}
	switch d := doc.(type) {
	case *Result:
		sum.ElapsedMS = d.ElapsedMS
	case *CorunDoc:
		sum.ElapsedMS = d.ElapsedMS
	case *ScheduleDoc:
		sum.ElapsedMS = d.ElapsedMS
	}
	s.ring.Push(sum)
	j.settle(status, doc, err, s.now())
	logger := j.logger
	if logger == nil {
		logger = obs.NopLogger
	}
	switch status {
	case StatusFailed:
		logger.Error("job failed", "error", sum.Error, "spans", len(spans))
	case StatusCanceled:
		logger.Info("job canceled", "spans", len(spans))
	default:
		logger.Info("job finished",
			"cached", v.Cached, "elapsed_ms", sum.ElapsedMS, "spans", len(spans))
	}
	return true
}

// ---- reads ----

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleCancel is DELETE /v1/jobs/{id}: cancel a job. Queued jobs of
// any kind cancel immediately. Running co-run and schedule jobs move to
// canceling — their context fires mid-matrix and the worker finalizes
// to canceled. A running *optimization* is not torn down mid-flight
// (409): its result is about to land in the content-addressed cache
// anyway. Unknown IDs get 404; terminal jobs 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if _, ok := j.startCancel(StatusQueued); ok {
		s.finish(j, StatusCanceled, nil, errors.New("canceled before running"))
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	if j.kind == jobKindCorun || j.kind == jobKindSchedule {
		if v, ok := j.startCancel(StatusRunning); ok {
			// The worker observes the fired context and finishes the job
			// as canceled; the client polls GET /v1/jobs/{id}. The answer
			// is the canceling view, whatever the worker has done since.
			writeJSON(w, http.StatusAccepted, v)
			return
		}
	}
	httpError(w, http.StatusConflict,
		fmt.Errorf("job %s is %s; only queued jobs (or running corun/schedule jobs) can be canceled", id, j.statusNow()))
	return
}

// handleDebugJobs is GET /v1/debug/jobs: the bounded ring of recent
// terminal-job summaries, newest first.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]jobSummary{"jobs": s.ring.Snapshot()})
}

func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if err := checkDigests(digest); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	res, ok := s.cache.get(r.Context(), digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached layout %q", digest))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleOptimizers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"optimizers": core.OptimizerNames()})
}

// healthzView is the GET /healthz body. The degraded reason rides the
// "degraded" key (matching what cluster health polling parses) and is
// omitted when healthy, so a healthy body never contains the word.
type healthzView struct {
	Status   string `json:"status"`
	NodeID   string `json:"node_id,omitempty"`
	Build    string `json:"build"`
	Degraded string `json:"degraded,omitempty"`
}

// handleHealthz reports liveness, identity, and build. When the durable
// store's circuit breaker is open the status is "degraded" with the
// breaker's last error as the reason: the daemon is serving from memory
// only and new results are not being persisted. Both states are 200 — a
// degraded layoutd is alive and should not be restarted by an
// orchestrator — but cluster peers observing "degraded" deprioritize
// this node when picking owners.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := healthzView{Status: "ok", NodeID: s.nodeID(), Build: buildString()}
	if s.disk != nil && s.disk.State() == store.StateDegraded {
		v.Status = "degraded"
		v.Degraded = s.disk.Stats().LastError
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// ---- helpers ----

func (s *Server) storeJob(j *Job) {
	s.mu.Lock()
	s.pruneJobsLocked(s.now())
	s.jobs[j.id] = j
	s.mu.Unlock()
}

// pruneJobsLocked enforces the completed-job retention bound: terminal
// jobs past JobTTL are dropped, and when the map still exceeds MaxJobs
// the oldest terminal jobs go first. Queued and running jobs are always
// kept — only their status record is subject to retention, and the
// result itself stays in the content-addressed cache either way.
func (s *Server) pruneJobsLocked(now time.Time) {
	for id, j := range s.jobs {
		if fin, terminal := j.terminal(); terminal && now.Sub(fin) > s.cfg.JobTTL {
			delete(s.jobs, id)
		}
	}
	if len(s.jobs) < s.cfg.MaxJobs {
		return
	}
	type finished struct {
		id  string
		fin time.Time
	}
	var term []finished
	for id, j := range s.jobs {
		if fin, terminal := j.terminal(); terminal {
			term = append(term, finished{id: id, fin: fin})
		}
	}
	sort.Slice(term, func(i, j int) bool { return term[i].fin.Before(term[j].fin) })
	for i := 0; i < len(term) && len(s.jobs) >= s.cfg.MaxJobs; i++ {
		delete(s.jobs, term[i].id)
	}
}

// JobsTracked reports the number of job-status records currently held
// (for tests and metrics).
func (s *Server) JobsTracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// program generates (once) and returns the named suite program.
func (s *Server) program(name string) (*ir.Program, error) {
	s.mu.Lock()
	e, ok := s.progs[name]
	if !ok {
		e = &progEntry{}
		s.progs[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.p, e.err = core.LoadProgram(name) })
	return e.p, e.err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	msg := strings.TrimSpace(err.Error())
	writeJSON(w, code, map[string]string{"error": msg})
}
