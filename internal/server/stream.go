package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// Streamed ingest: when Config.StreamWindow > 0 and the optimizer
// supports feed mode (core.Optimizer.FeedSupported), POST /v1/jobs no
// longer buffers the decoded trace before analysis. The request
// handler becomes the producer — it decodes the upload into fixed-size
// chunks and tees the raw container bytes to a disk spool — while a
// pool worker consumes the chunks into the optimizer's feed as they
// arrive. Decoded memory is bounded by the ring below; when the
// analysis falls behind, the producer blocks waiting for a recycled
// buffer and TCP backpressure stalls the client. After end-of-stream
// the worker finishes the analysis and replays the spool once through
// two streaming cache simulations (original and optimized layouts) for
// the before/after miss ratios, so no stage ever holds the whole
// decoded trace.
//
// PR 1's deterministic sharded merge is what makes this safe: the feed
// cuts shards at chunk arrival boundaries, yet the merged result is
// byte-identical to the buffered pipeline's, so streamed and buffered
// submissions of the same trace produce the same content-addressed
// result.

const (
	// streamChunkRefs is the decode granularity of the streamed path:
	// one ring buffer holds this many block references (32 KiB).
	streamChunkRefs  = 8192
	streamChunkBytes = 4 * streamChunkRefs
	// minStreamBuffers is the ring floor — producer-held, in-channel,
	// and consumer-held buffers — below which the pipeline cannot
	// overlap at all.
	minStreamBuffers = 3
	// streamRetainMaxBytes caps the spooled traces retained for later
	// corun/schedule replay; larger streamed uploads are analyzed but
	// not kept (re-buffering them would defeat the bounded ingest).
	streamRetainMaxBytes = 16 << 20
)

// streamRing is the bounded chunk pipe between one submission's
// producer (the request handler decoding the upload) and consumer (the
// pool worker feeding the optimizer). Buffers are allocated lazily up
// to the window bound and recycled through free.
//
// Shutdown protocol: only the producer closes chunks (always, success
// or failure, via closeChunks); only the consumer closes done (at most
// once, via fail). The consumer always drains chunks to the closure,
// so neither side can strand the other.
type streamRing struct {
	chunks chan []int32
	free   chan []int32
	done   chan struct{}

	maxBufs   int
	allocated int // producer-side only
	released  bool

	mu          sync.Mutex
	err         error
	sealed      bool
	traceDigest string
	traceBytes  int64
	refs        int
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
// canceled before running): the producer unblocks and stops decoding.
// Call at most once per ring.
func (rg *streamRing) fail(err error) {
	rg.mu.Lock()
	if rg.err == nil {
		rg.err = err
	}
	rg.mu.Unlock()
	close(rg.done)
}

// seal records end-of-stream success: the upload's digest, byte count,
// and reference count, published to the consumer by the chunks close
// that follows.
func (rg *streamRing) seal(digest string, nbytes int64, refs int) {
	rg.mu.Lock()
	rg.sealed = true
	rg.traceDigest = digest
	rg.traceBytes = nbytes
	rg.refs = refs
	rg.mu.Unlock()
}

// closeChunks ends production. A nil perr means seal already ran; a
// non-nil one poisons the stream so the consumer aborts its feed.
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

// result returns the sealed end-of-stream record; valid after chunks
// closes.
func (rg *streamRing) result() (sealed bool, digest string, nbytes int64, refs int, err error) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.sealed, rg.traceDigest, rg.traceBytes, rg.refs, rg.err
}

// release returns the ring's buffer accounting to the gauge. Called by
// the producer after closeChunks; the consumer only ever holds one
// buffer transiently, so by then the count is stable.
func (rg *streamRing) release(s *Server) {
	if rg.released {
		return
	}
	rg.released = true
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

// streamRequest carries one streamed submission to its pool worker.
type streamRequest struct {
	sub       *submission
	spoolPath string
	deadline  time.Time
	// ctx is the job's own lifetime context (DELETE cancellation), as
	// in jobRequest.
	ctx context.Context
}

// spoolDir is where streamed submissions spool the raw upload; beside
// the upload sessions when configured, the system temp dir otherwise.
func (s *Server) spoolDir() string {
	if s.uploads != nil {
		return s.uploads.Dir()
	}
	return ""
}

// streamSubmit is the feed-mode body of POST /v1/jobs: spool to a temp
// file while decoding into the ring, analysis already running.
func (s *Server) streamSubmit(ctx context.Context, w http.ResponseWriter, body io.Reader, sub *submission) {
	spool, err := os.CreateTemp(s.spoolDir(), "stream-*.cltr")
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("creating stream spool: %w", err))
		return
	}
	s.streamIngest(ctx, w, body, spool, spool.Name(), sub)
}

// streamIngest runs one streamed submission end to end from the
// handler goroutine: queue the consumer first (so analysis can start
// with the first chunk), then produce until end-of-stream, then answer.
// body is the CLTR byte source; tee, when non-nil, receives a copy of
// the bytes at spoolPath (the finalize path passes tee nil because the
// spool already exists). On acceptance the consumer owns spoolPath.
func (s *Server) streamIngest(ctx context.Context, w http.ResponseWriter, body io.Reader, tee *os.File, spoolPath string, sub *submission) {
	rg := newStreamRing(s.cfg.StreamWindow)
	jobCtx, jobCancel := context.WithCancel(context.Background())
	req := &streamRequest{
		sub:       sub,
		spoolPath: spoolPath,
		deadline:  time.Now().Add(s.cfg.JobTimeout),
		ctx:       jobCtx,
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
		s.runStreamJob(poolCtx, j, req, rg)
	})
	if !accepted {
		s.dropJob(j.id)
		jobCancel()
		if tee != nil {
			tee.Close()
		}
		os.Remove(spoolPath)
		s.metrics.rejected.Inc()
		sub.logger.Warn("job rejected: queue full", "job", j.id)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, errors.New("job queue full"))
		return
	}
	s.metrics.accepted.Inc()
	s.metrics.streamJobs.Inc()

	perr := s.streamProduce(ctx, body, tee, rg)
	if tee != nil {
		if cerr := tee.Close(); perr == nil && cerr != nil {
			perr = fmt.Errorf("closing stream spool: %w", cerr)
		}
	}
	if perr == nil {
		// Publish the seal before the close so the consumer observes it.
		rg.closeChunks(nil)
	} else {
		rg.closeChunks(perr)
	}
	rg.release(s)
	if perr != nil {
		sub.logger.Warn("streamed upload failed", "job", j.id, "error", perr)
		httpError(w, badBodyStatus(perr), perr)
		return
	}
	_, digest, nbytes, refs, _ := rg.result()
	j.logger.Info("job accepted",
		"prog", sub.progName, "opt", sub.optName, "prune", sub.pruneTopN,
		"trace_bytes", nbytes, "trace_refs", refs, "trace_digest", digest,
		"streamed", true)
	writeJSON(w, http.StatusAccepted, j.view())
}

// streamProduce decodes the upload into ring chunks under a
// stream.decode span, fingerprinting every byte and teeing the raw
// container to the spool. On success the ring is sealed with the
// digest; the caller closes the chunk channel either way.
func (s *Server) streamProduce(ctx context.Context, body io.Reader, tee *os.File, rg *streamRing) error {
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
	if dec.Len() == 0 {
		return errors.New("trace is empty")
	}
	refs := 0
	for {
		buf, ok := rg.getBuf(s)
		if !ok {
			return rg.abortErr()
		}
		n, err := dec.NextChunk(buf)
		if n > 0 {
			refs += n
			if !rg.send(buf[:n]) {
				return rg.abortErr()
			}
		} else {
			rg.recycle(buf)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	// Drain trailing bytes so the digest covers the whole upload,
	// matching the buffered decodeUpload.
	if _, err := io.Copy(io.Discard, hr); err != nil {
		return err
	}
	sp.SetAttr("bytes", hr.BytesRead())
	sp.SetAttr("refs", int64(refs))
	rg.seal(hr.Sum(), hr.BytesRead(), refs)
	return nil
}

// runStreamJob is the pool task behind a streamed submission: consume
// the ring into the optimizer's feed, finish, simulate, publish.
func (s *Server) runStreamJob(poolCtx context.Context, j *Job, req *streamRequest, rg *streamRing) {
	defer os.Remove(req.spoolPath)
	ctx, cleanup, ok := s.beginJob(poolCtx, j, req.deadline, req.ctx)
	if !ok {
		rg.fail(errors.New("job canceled before running"))
		for range rg.chunks {
		}
		return
	}
	defer cleanup()
	start := time.Now()
	sp := obs.StartSpan(ctx, "optimize")
	res, cached, err := s.streamOptimize(ctx, j, req, rg)
	sp.End()
	if err != nil {
		s.failOrCancel(j, err)
		return
	}
	if cached {
		j.markCached()
		s.metrics.cacheHits.Inc()
		s.finish(j, StatusDone, res, nil)
		return
	}
	elapsed := time.Since(start)
	res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	s.cache.put(ctx, res.Digest, res)
	s.metrics.latency.With(req.sub.optName).Observe(res.ElapsedMS)
	s.finish(j, StatusDone, res, nil)
}

// streamOptimize is the consumer half of a streamed submission: feed
// chunks into the analysis as they decode, then finish and replay the
// spool for the before/after miss simulation. It always drains the
// chunk channel to closure, recycling every buffer, so the producer
// can never wedge on a full ring.
func (s *Server) streamOptimize(ctx context.Context, j *Job, req *streamRequest, rg *streamRing) (res *Result, cached bool, err error) {
	sub := req.sub
	opt := sub.opt
	opt.PruneTopN = sub.pruneTopN
	opt.Workers = s.cfg.OptWorkers
	opt.Arena = s.getArena()
	defer s.putArena(opt.Arena)

	feed, err := opt.NewFeed(ctx, sub.prog)
	if err != nil {
		// Unreachable behind the canStream gate; drain defensively.
		rg.fail(err)
		for range rg.chunks {
		}
		return nil, false, err
	}
	fsp := obs.StartSpan(ctx, "stream.feed")
	var feedErr error
	chunks := 0
	for buf := range rg.chunks {
		if feedErr == nil {
			chunks++
			s.metrics.streamChunks.Inc()
			if feedErr = feed.Feed(ctx, buf); feedErr != nil {
				rg.fail(feedErr) // unblock the producer
			}
		}
		rg.recycle(buf)
	}
	fsp.SetAttr("chunks", int64(chunks))
	fsp.End()
	if feedErr != nil {
		feed.Abort()
		return nil, false, feedErr
	}
	sealed, traceDigest, traceBytes, refs, perr := rg.result()
	if !sealed {
		feed.Abort()
		if perr == nil {
			perr = errors.New("upload aborted")
		}
		return nil, false, fmt.Errorf("streamed upload failed: %w", perr)
	}
	if refs == 0 {
		feed.Abort()
		return nil, false, errors.New("trace is empty")
	}

	resultKey := resultDigest(traceDigest, sub.progName, sub.optName, sub.pruneTopN)
	j.setDigest(resultKey)
	// Content-addressed fast path, post-upload for streamed jobs: the
	// digest is only known at end-of-stream.
	if cres, ok := s.cache.get(ctx, resultKey); ok {
		feed.Abort()
		return cres, true, nil
	}

	l, rep, err := feed.Finish(ctx)
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("job deadline exceeded after optimization: %w", err)
	}
	before, after, err := s.replaySpool(ctx, sub.prog, l, req.spoolPath)
	if err != nil {
		return nil, false, err
	}
	s.retainSpool(ctx, traceDigest, req.spoolPath, traceBytes)
	return &Result{
		Digest:        resultKey,
		TraceDigest:   traceDigest,
		Prog:          sub.progName,
		Optimizer:     sub.opt.Name(),
		Report:        rep,
		MissBefore:    before,
		MissAfter:     after,
		MissReduction: stats.Reduction(before, after),
	}, false, nil
}

// replaySpool re-decodes the spooled container once, feeding the
// original and optimized layouts' streaming cache simulations in
// lockstep — the same one-pass bounded-memory discipline as the ingest
// itself, and the same miss ratios the buffered pipeline reports.
func (s *Server) replaySpool(ctx context.Context, prog *ir.Program, l *layout.Layout, path string) (before, after float64, err error) {
	sp := obs.StartSpan(ctx, "cachesim.replay")
	defer sp.End()
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("reopening stream spool: %w", err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		return 0, 0, err
	}
	cfg := cachesim.L1IDefault
	orig := cachesim.NewSoloStream(cfg, layout.Original(prog))
	opt := cachesim.NewSoloStream(cfg, l)
	buf := make([]int32, streamChunkRefs)
	for {
		n, err := dec.NextChunk(buf)
		if n > 0 {
			orig.Feed(buf[:n])
			opt.Feed(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
	}
	ro, rl := orig.Finish(), opt.Finish()
	sp.SetAttr("blocks", ro.Blocks)
	return ro.Stats.MissRatio(), rl.Stats.MissRatio(), nil
}

// retainSpool keeps a streamed trace queryable by digest for the
// corun/schedule endpoints — in the durable tier, or decoded into the
// bounded memory tier when there is none — up to a size cap:
// re-buffering an arbitrarily large spool would defeat the
// bounded-memory ingest, so huge streamed traces are analyzed but not
// retained.
func (s *Server) retainSpool(ctx context.Context, digest, path string, size int64) {
	if size > streamRetainMaxBytes {
		obs.Logger(ctx).Info("streamed trace not retained", "trace_digest", digest, "bytes", size)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	s.traces.putEncoded(ctx, digest, data)
}
