package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// Ingest: POST /v1/jobs and upload finalize share one path (ingest).
// The handler admits the job to the pool before it reads the body, then
// runs the one producer (streamProduce), and at the seal — the content
// address now known — answers a cache hit itself with 200. A miss
// answers 202 and leaves the job to its worker, runJob → runOptimize.
// The CLTR header's declared count decides how that worker reads the
// trace:
//
//   - Decoded, it fits Config.StreamWindow: the producer holds it whole,
//     and the worker analyzes it in place after the seal with
//     OptimizeCtx, then replays from it.
//   - It is larger: a feed-capable worker analyzes it while it uploads,
//     feeding core.Feed through a bounded ring (streamRing), so memory
//     stays O(window); when the analysis falls behind, the producer
//     blocks waiting for a recycled buffer and TCP backpressure stalls
//     the client. It then replays the spool. Any other worker decodes
//     the spool after the seal and analyzes and replays that copy as a
//     held trace.
//
// So a trace in memory is analyzed in place and only an upload in
// flight is fed. The kernels' deterministic sharded merge makes the fed
// analysis byte-identical to the resident one, so every regime yields
// the same content-addressed result.

const (
	// streamChunkRefs is the decode granularity: one ring buffer holds
	// this many block references (32 KiB).
	streamChunkRefs  = 8192
	streamChunkBytes = 4 * streamChunkRefs
	// minStreamBuffers is the ring floor — producer-held, in-channel,
	// and consumer-held buffers — below which the pipeline cannot
	// overlap at all.
	minStreamBuffers = 3
	// maxHeldPrealloc caps the references a held trace allocates up
	// front, as trace.Decoder.Decode does, so a lying header cannot force
	// a large allocation before any payload arrives.
	maxHeldPrealloc = 1 << 20
	// streamRetainMaxBytes caps the spooled traces retained for later
	// corun/schedule replay; larger uploads are analyzed but not kept
	// (re-buffering them would defeat the bounded ingest).
	streamRetainMaxBytes = 16 << 20
)

// chunkSource hands a trace to fn one chunk at a time, in order,
// stopping at fn's first error.
type chunkSource func(fn func([]int32) error) error

// streamRing is the bounded chunk pipe between one submission's
// producer (the request handler decoding the upload) and consumer (the
// pool worker). Only an over-window feed job's chunks travel through
// it; for every job, its closing is the seal the worker waits for.
// Buffers are allocated lazily up to the window bound and recycled
// through free.
//
// Shutdown protocol: only the producer closes chunks (always, success
// or failure, via closeChunks); only the consumer closes done (once, via
// fail). The consumer always drains chunks to the closure, so neither
// side can strand the other.
type streamRing struct {
	chunks chan []int32
	free   chan []int32
	done   chan struct{}

	maxBufs   int
	allocated int // producer-side only

	mu     sync.Mutex
	err    error
	failed bool
}

func newStreamRing(window int64) *streamRing {
	maxBufs := int(window / streamChunkBytes)
	if maxBufs < minStreamBuffers {
		maxBufs = minStreamBuffers
	}
	return &streamRing{
		chunks:  make(chan []int32, maxBufs),
		free:    make(chan []int32, maxBufs),
		done:    make(chan struct{}),
		maxBufs: maxBufs,
	}
}

// getBuf returns an empty full-capacity buffer: a recycled one when
// available, a fresh allocation while under the window bound, else it
// blocks until the consumer recycles — the memory backpressure that
// ultimately stalls the upload. ok is false when the consumer aborted.
func (rg *streamRing) getBuf(s *Server) ([]int32, bool) {
	select {
	case b := <-rg.free:
		return b[:streamChunkRefs], true
	default:
	}
	if rg.allocated < rg.maxBufs {
		rg.allocated++
		s.addStreamBuffered(streamChunkBytes)
		return make([]int32, streamChunkRefs), true
	}
	select {
	case b := <-rg.free:
		return b[:streamChunkRefs], true
	case <-rg.done:
		return nil, false
	}
}

// send hands a filled buffer to the consumer. The channel's capacity
// equals the buffer bound, so this never blocks on a live consumer;
// the done arm covers a consumer that aborted mid-drain.
func (rg *streamRing) send(buf []int32) bool {
	select {
	case rg.chunks <- buf:
		return true
	case <-rg.done:
		return false
	}
}

// recycle returns a consumed buffer to the producer.
func (rg *streamRing) recycle(buf []int32) {
	select {
	case rg.free <- buf:
	default:
	}
}

// fail aborts the stream from the consumer side (feed error, job
// ended before its upload): the producer unblocks and stops decoding.
// Later calls change nothing.
func (rg *streamRing) fail(err error) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if rg.err == nil {
		rg.err = err
	}
	if !rg.failed {
		rg.failed = true
		close(rg.done)
	}
}

// closeChunks ends production: the seal when perr is nil, else the
// upload's failure, which the consumer reports.
func (rg *streamRing) closeChunks(perr error) {
	rg.mu.Lock()
	if perr != nil && rg.err == nil {
		rg.err = perr
	}
	rg.mu.Unlock()
	close(rg.chunks)
}

func (rg *streamRing) abortErr() error {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if rg.err != nil {
		return rg.err
	}
	return errors.New("stream aborted")
}

// each is the ring as a chunkSource: it hands every chunk to fn as it
// arrives and recycles it, and returns once the producer closes the
// ring. After fn fails it fails the ring, which stops the producer, and
// only drains. It returns fn's error, else the upload's.
func (rg *streamRing) each(fn func([]int32) error) error {
	var err error
	for buf := range rg.chunks {
		if err == nil {
			if err = fn(buf); err != nil {
				rg.fail(err)
			}
		}
		rg.recycle(buf)
	}
	if err != nil {
		return err
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if rg.err != nil {
		return fmt.Errorf("upload failed: %w", rg.err)
	}
	return nil
}

// abandon ends the consumer side, whatever the worker did: it fails the
// ring, so a producer still decoding stops, and drains it to the
// closure, so the producer never wedges and has stopped writing the
// spool.
func (rg *streamRing) abandon() {
	rg.fail(errors.New("job ended before its upload"))
	for buf := range rg.chunks {
		rg.recycle(buf)
	}
}

// release returns the ring's buffer accounting to the gauge. The
// producer calls it once, when it has stopped producing; the consumer
// only ever holds one buffer transiently, so by then the count is
// stable.
func (rg *streamRing) release(s *Server) {
	s.streamBytes.Add(-int64(rg.allocated) * streamChunkBytes)
}

// addStreamBuffered bumps the in-flight gauge and its high-water mark.
func (s *Server) addStreamBuffered(n int64) {
	v := s.streamBytes.Add(n)
	for {
		p := s.streamPeak.Load()
		if v <= p || s.streamPeak.CompareAndSwap(p, v) {
			return
		}
	}
}

// spoolDir is where submissions spool the raw upload; beside the upload
// sessions when configured, the system temp dir otherwise.
func (s *Server) spoolDir() string {
	if s.uploads != nil {
		return s.uploads.Dir()
	}
	return ""
}

// ingest runs one submission end to end from the handler goroutine:
// admit the job, produce until end-of-stream, then answer — 200 with
// the result on a cache hit, 202 on a miss. body is the CLTR byte
// source; tee, when non-nil, receives a copy of the bytes at spool
// (finalize passes nil: the sealed upload already is the spool). Once
// admitted, the job owns spool.
func (s *Server) ingest(ctx context.Context, w http.ResponseWriter, sub *submission, body io.Reader, tee *os.File, spool string) {
	jobCtx, jobCancel := context.WithCancel(context.Background())
	req := &jobRequest{
		prog:      sub.prog,
		progName:  sub.progName,
		opt:       sub.opt,
		pruneTopN: sub.pruneTopN,
		deadline:  time.Now().Add(s.cfg.JobTimeout),
		ctx:       jobCtx,
		ring:      newStreamRing(s.cfg.StreamWindow),
		spool:     spool,
	}
	j := &Job{
		id:       s.newJobID(),
		status:   StatusQueued,
		created:  time.Now(),
		cancel:   jobCancel,
		traceID:  sub.traceID,
		rec:      sub.rec,
		progName: sub.progName,
		optName:  sub.optName,
	}
	j.logger = sub.logger.With("job", j.id)
	s.storeJob(j)
	accepted := s.pool.TrySubmit(func(poolCtx context.Context) {
		s.runJob(poolCtx, j, req)
	})
	if !accepted {
		s.dropJob(j.id)
		jobCancel()
		if tee != nil {
			tee.Close()
		}
		os.Remove(spool)
		s.metrics.rejected.Inc()
		sub.logger.Warn("job rejected: queue full", "job", j.id)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, errors.New("job queue full"))
		return
	}
	s.metrics.accepted.Inc()

	err := s.streamProduce(ctx, body, tee, req)
	if tee != nil {
		if cerr := tee.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing spool: %w", cerr)
		}
	}
	req.ring.release(s)
	if err != nil {
		req.ring.closeChunks(err)
		sub.logger.Warn("upload failed", "job", j.id, "error", err)
		httpError(w, badBodyStatus(err), err)
		return
	}
	req.digest = resultDigest(req.traceDigest, sub.progName, sub.optName, sub.pruneTopN)
	j.setDigest(req.digest)
	// The seal. A hit finishes the job before the ring closes, so a
	// worker already waiting on the ring finds it finished.
	code := http.StatusAccepted
	if res, ok := s.cache.get(ctx, req.digest); ok && s.finishJob(j, true, StatusDone, res, nil) {
		code = http.StatusOK
	} else {
		j.holdBytes(s.metrics.inflightBytes, req.traceBytes)
		j.logger.Info("job accepted",
			"prog", sub.progName, "opt", sub.optName, "prune", sub.pruneTopN,
			"trace_bytes", req.traceBytes, "trace_digest", req.traceDigest, "digest", req.digest)
	}
	v := j.view()
	req.ring.closeChunks(nil)
	writeJSON(w, code, v)
}

// streamProduce is the one producer: it decodes the upload under a
// stream.decode span, fingerprints every byte, tees the raw container to
// the spool and checks every symbol against the program. A trace whose
// decoded form fits the window is held whole for the worker; a larger
// one flows through the ring when the worker feeds it, and is otherwise
// only checked — that worker decodes the spool after the seal. On
// success it records the seal in req; the caller closes the ring either
// way.
func (s *Server) streamProduce(ctx context.Context, body io.Reader, tee *os.File, req *jobRequest) error {
	sp := obs.StartSpan(ctx, "stream.decode")
	defer sp.End()
	hr := trace.NewHashingReader(body)
	var src io.Reader = hr
	if tee != nil {
		src = io.TeeReader(hr, tee)
	}
	dec, err := trace.NewDecoder(src)
	if err != nil {
		return err
	}
	count := dec.Len()
	if count == 0 {
		return errors.New("trace is empty")
	}
	rg := req.ring
	hold := int64(count)*4 <= s.cfg.StreamWindow
	stream := !hold && req.optimizer().FeedSupported(req.prog)
	var held []int32
	if hold {
		held = make([]int32, 0, min(count, maxHeldPrealloc))
	}
	nb := req.prog.NumBlocks()
	for refs := 0; refs < count; {
		var buf []int32
		if hold {
			want := min(count-refs, streamChunkRefs)
			held = slices.Grow(held, want)
			buf = held[refs : refs+want]
		} else {
			var ok bool
			if buf, ok = rg.getBuf(s); !ok {
				return rg.abortErr()
			}
		}
		n, err := dec.NextChunk(buf)
		for _, sym := range buf[:n] {
			if int(sym) >= nb {
				return fmt.Errorf("trace symbol %d out of range for %s (%d blocks); is this a basic-block trace of the named program?",
					sym, req.progName, nb)
			}
		}
		refs += n
		switch {
		case hold:
			held = held[:refs]
		case stream && n > 0:
			if !rg.send(buf[:n]) {
				return rg.abortErr()
			}
		default:
			rg.recycle(buf)
		}
		if err != nil {
			return err
		}
	}
	// Drain trailing bytes so the digest covers the whole upload.
	if _, err := io.Copy(io.Discard, hr); err != nil {
		return err
	}
	sp.SetAttr("bytes", hr.BytesRead())
	sp.SetAttr("refs", int64(count))
	req.traceDigest, req.traceBytes = hr.Sum(), hr.BytesRead()
	if hold {
		req.held = trace.New(held)
	}
	return nil
}

// runOptimize is the one optimization pipeline, the worker half of
// ingest. It waits for the seal, feeding the ring's chunks to core.Feed
// as they arrive when the upload streams. Any other trace it analyzes
// in memory with OptimizeCtx: the one the producer held, or the spool
// decoded. It then replays the trace through the original and
// optimized layouts for the before/after miss ratios, and retains the
// trace for /v1/corun and /v1/schedule.
func (s *Server) runOptimize(ctx context.Context, req *jobRequest) (*Result, error) {
	opt := req.optimizer()
	opt.Workers, opt.Arena = s.cfg.OptWorkers, &s.arena

	feed, err := s.feedRing(ctx, opt, req.prog, req.ring)
	if feed != nil {
		s.metrics.streamJobs.Inc()
		defer feed.Abort() // a no-op once Finish ran
	}
	if err == nil {
		// Only another owner's finish cancels the job's own context: a
		// hit at the seal does so before it closes the ring.
		err = req.ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	tr := req.held
	if feed == nil && tr == nil {
		if tr, err = decodeSpool(ctx, req.spool); err != nil {
			return nil, err
		}
	}
	var l *layout.Layout
	var rep core.Report
	if feed != nil {
		l, rep, err = feed.Finish(ctx)
	} else {
		l, rep, err = opt.OptimizeCtx(ctx, &core.Profile{Prog: req.prog, Blocks: tr})
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("job deadline exceeded after optimization: %w", err)
	}
	src := spoolChunks(req.spool)
	if tr != nil {
		src = heldChunks(tr)
	}
	before, after, err := replay(ctx, req.prog, l, src)
	if err != nil {
		return nil, err
	}
	s.retainSpool(ctx, req.traceDigest, req.spool, req.traceBytes)
	return &Result{
		Digest:        req.digest,
		TraceDigest:   req.traceDigest,
		Prog:          req.progName,
		Optimizer:     req.opt.Name(),
		Report:        rep,
		MissBefore:    before,
		MissAfter:     after,
		MissReduction: stats.Reduction(before, after),
	}, nil
}

// feedRing feeds the ring's chunks to core.Feed as they arrive, under
// a stream.feed span. The feed starts with the first chunk, so the ring
// of a job that does not stream returns a nil feed and only the
// upload's error. The caller finishes or aborts a non-nil feed, failed
// or not.
func (s *Server) feedRing(ctx context.Context, opt core.Optimizer, prog *ir.Program, rg *streamRing) (*core.Feed, error) {
	var feed *core.Feed
	var sp obs.Span
	var chunks int64
	err := rg.each(func(c []int32) error {
		if feed == nil {
			sp = obs.StartSpan(ctx, "stream.feed")
			var err error
			if feed, err = opt.NewFeed(ctx, prog); err != nil {
				return err
			}
		}
		chunks++
		s.metrics.streamChunks.Inc()
		return feed.Feed(ctx, c)
	})
	sp.SetAttr("chunks", chunks)
	sp.End()
	return feed, err
}

// heldChunks yields a held trace in ring-sized chunks.
func heldChunks(tr *trace.Trace) chunkSource {
	return func(fn func([]int32) error) error {
		for syms := tr.Syms; len(syms) > 0; {
			n := min(len(syms), streamChunkRefs)
			if err := fn(syms[:n]); err != nil {
				return err
			}
			syms = syms[n:]
		}
		return nil
	}
}

// spoolChunks re-decodes the sealed spool one ring-sized chunk at a
// time.
func spoolChunks(path string) chunkSource {
	return func(fn func([]int32) error) error {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("reopening spool: %w", err)
		}
		defer f.Close()
		dec, err := trace.NewDecoder(f)
		if err != nil {
			return err
		}
		buf := make([]int32, streamChunkRefs)
		for {
			n, err := dec.NextChunk(buf)
			if n > 0 {
				if ferr := fn(buf[:n]); ferr != nil {
					return ferr
				}
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// decodeSpool reads the sealed spool back into memory under a
// trace.decode span: the over-window path of an optimizer that needs
// the whole trace.
func decodeSpool(ctx context.Context, path string) (*trace.Trace, error) {
	sp := obs.StartSpan(ctx, "trace.decode")
	defer sp.End()
	var syms []int32
	err := spoolChunks(path)(func(c []int32) error {
		syms = append(syms, c...)
		return nil
	})
	sp.SetAttr("refs", int64(len(syms)))
	return trace.New(syms), err
}

// replay runs the original and optimized layouts' solo cache
// simulations in lockstep over src, for the before/after miss ratios.
func replay(ctx context.Context, prog *ir.Program, l *layout.Layout, src chunkSource) (before, after float64, err error) {
	sp := obs.StartSpan(ctx, "cachesim.replay")
	defer sp.End()
	cfg := cachesim.L1IDefault
	orig := cachesim.NewSoloStream(cfg, layout.Original(prog))
	opt := cachesim.NewSoloStream(cfg, l)
	if err := src(func(c []int32) error {
		orig.Feed(c)
		opt.Feed(c)
		return nil
	}); err != nil {
		return 0, 0, err
	}
	ro, rl := orig.Finish(), opt.Finish()
	sp.SetAttr("blocks", ro.Blocks)
	return ro.Stats.MissRatio(), rl.Stats.MissRatio(), nil
}

// retainSpool keeps a job's trace queryable by digest for the
// corun/schedule endpoints — in the durable tier, or decoded into the
// bounded memory tier when there is none — up to a size cap:
// re-buffering an arbitrarily large spool would defeat the
// bounded-memory ingest, so huge traces are analyzed but not retained.
func (s *Server) retainSpool(ctx context.Context, digest, path string, size int64) {
	if size > streamRetainMaxBytes {
		obs.Logger(ctx).Info("trace not retained", "trace_digest", digest, "bytes", size)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	s.traces.putEncoded(ctx, digest, data)
}
