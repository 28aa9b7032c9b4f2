package server

import (
	"context"
	"log/slog"
	"os"
	"sync"
	"time"

	"codelayout/internal/core"
	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// Result is the completed output of one optimization job — what the
// content-addressed cache stores and `GET /v1/layouts/{digest}` serves.
type Result struct {
	// Digest is the content address: SHA-256 over the trace digest, the
	// optimizer name, and the request parameters.
	Digest string `json:"digest"`
	// TraceDigest is the SHA-256 of the uploaded trace bytes.
	TraceDigest string `json:"traceDigest"`
	Prog        string `json:"prog"`
	Optimizer   string `json:"optimizer"`
	// Report is the pipeline's transformation report, including the
	// optimized code-unit sequence.
	Report core.Report `json:"report"`
	// MissBefore/MissAfter are the simulated solo i-cache miss ratios of
	// the uploaded trace replayed through the original and the optimized
	// layout; MissReduction is the relative improvement.
	MissBefore    float64 `json:"missBefore"`
	MissAfter     float64 `json:"missAfter"`
	MissReduction float64 `json:"missReduction"`
	// ElapsedMS is the wall time of the run that computed the result; a
	// cache hit returns the stored result with that run's time.
	ElapsedMS float64 `json:"elapsedMS"`
}

// Job states, in lifecycle order. DELETE /v1/jobs/{id} moves a queued
// job of any kind to Canceling and at once finishes it as Canceled. A
// running co-run or schedule job also moves to Canceling (its context
// fires), and its worker finishes it as Canceled when the pipeline
// observes the cancellation; a running optimization is past the point
// of no return. Done, Failed and Canceled are terminal: a job never
// leaves them.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCanceling = "canceling"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCanceled  = "canceled"
)

// Job kinds. The zero value is an optimization job, keeping the wire
// format of the original endpoint unchanged.
const (
	jobKindOptimize = ""
	jobKindCorun    = "corun"
	jobKindSchedule = "schedule"
)

// jobRequest carries one optimization job from its handler to its
// worker: its submission, and what the upload reveals — the digests,
// the size, the held trace — which the handler fills in before it
// closes the ring and the worker reads once it has drained the ring.
type jobRequest struct {
	*submission

	// ring carries the upload to the worker; its closing is the seal.
	// spool is the raw upload on disk, which the job owns.
	ring  *streamRing
	spool string

	// Set at the seal.
	traceDigest string
	traceBytes  int64
	digest      string
	held        *trace.Trace // the decoded trace, when it fits the window
}

// optimizer returns the request's optimizer at its prune bound.
func (req *jobRequest) optimizer() core.Optimizer {
	opt := req.opt
	opt.PruneTopN = req.pruneTopN
	return opt
}

// dispose releases the job's upload once its worker is done with it,
// whatever the pipeline did: it stops a producer still decoding, drains
// the ring and removes the spool.
func (req *jobRequest) dispose() {
	if req.ring != nil {
		req.ring.abandon()
	}
	if req.spool != "" {
		os.Remove(req.spool)
	}
}

// Job is one submission's mutable state. All fields behind mu except
// the lifetime (ctx, cancel, deadline) and the observability
// handles (traceID, rec, logger), which are set once at creation and
// read-only after; the JSON view is built under the lock.
type Job struct {
	mu       sync.Mutex
	id       string
	kind     string // jobKindOptimize (zero), jobKindCorun, jobKindSchedule
	status   string
	cached   bool
	err      string
	result   *Result
	corun    *CorunDoc
	schedule *ScheduleDoc
	digest   string
	created  time.Time
	started  time.Time
	finished time.Time
	// ctx is the job's own lifetime context, which its pipeline context
	// derives from; cancel tears it down, called by DELETE and by the
	// job's finish. deadline bounds the job from its creation, queue
	// wait included.
	ctx      context.Context
	cancel   func()
	deadline time.Time

	// traceID correlates every log line, span, and debug summary the
	// job produces.
	traceID string
	// rec is the job's bounded span buffer, served at
	// GET /v1/jobs/{id}/trace.
	rec *obs.Recorder
	// logger is pre-bound with trace_id and job id.
	logger *slog.Logger
	// progName/optName feed the debug-ring summary.
	progName string
	optName  string
	// traceBytes is the upload size counted in layoutd_inflight_bytes
	// while the job is queued or running (0 for cache hits).
	traceBytes int64
	// finishing is set by the one finish call that claims the job.
	finishing bool
}

// jobView is the wire representation of a job. Kind is empty for
// optimization jobs, so their wire format is unchanged; corun and
// schedule jobs carry their documents in dedicated fields.
type jobView struct {
	ID       string       `json:"id"`
	Kind     string       `json:"kind,omitempty"`
	Status   string       `json:"status"`
	Digest   string       `json:"digest"`
	TraceID  string       `json:"traceId,omitempty"`
	Cached   bool         `json:"cached"`
	Error    string       `json:"error,omitempty"`
	Result   *Result      `json:"result,omitempty"`
	Corun    *CorunDoc    `json:"corun,omitempty"`
	Schedule *ScheduleDoc `json:"schedule,omitempty"`
}

// setDigest publishes a content address learned after acceptance: an
// upload's digest is only known at the seal.
func (j *Job) setDigest(d string) {
	j.mu.Lock()
	j.digest = d
	j.mu.Unlock()
}

// holdBytes counts a sealed miss's upload size in the in-flight gauge
// g until the job's finish releases it. A job already claimed holds
// nothing.
func (j *Job) holdBytes(g *obs.Gauge, n int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finishing || terminalStatus(j.status) {
		return
	}
	j.traceBytes = n
	g.Add(n)
}

// claim reserves the job for the one finish call that owns it, marking
// it cached when a cache answered it. It reports false when the job is
// terminal or another owner claimed it first; otherwise it returns the
// job's view and the in-flight bytes the job holds.
func (j *Job) claim(cached bool) (jobView, int64, bool) {
	j.mu.Lock()
	if j.finishing || terminalStatus(j.status) {
		j.mu.Unlock()
		return jobView{}, 0, false
	}
	j.finishing = true
	j.cached = j.cached || cached
	held := j.traceBytes
	j.mu.Unlock()
	return j.view(), held, true
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// viewLocked is view with j.mu held.
func (j *Job) viewLocked() jobView {
	return jobView{
		ID:       j.id,
		Kind:     j.kind,
		Status:   j.status,
		Digest:   j.digest,
		TraceID:  j.traceID,
		Cached:   j.cached,
		Error:    j.err,
		Result:   j.result,
		Corun:    j.corun,
		Schedule: j.schedule,
	}
}

// spanView is one span in the wire timeline. Node names the cluster
// member that recorded the span; it is empty on a single node and
// filled in by the cross-node trace assembly (see fwdtrace.go).
type spanView struct {
	Name    string           `json:"name"`
	Node    string           `json:"node,omitempty"`
	StartMS float64          `json:"start_ms"`
	DurMS   float64          `json:"dur_ms"` // -1 while still in progress
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// traceView is the wire representation of GET /v1/jobs/{id}/trace:
// the job's recorded span timeline, offsets relative to submission.
// BeginUnixNS anchors the timeline to wall time so a non-owner can
// merge its forward spans onto the owner's offsets; Nodes lists every
// cluster member contributing spans (empty single-node).
type traceView struct {
	JobID       string     `json:"job_id"`
	TraceID     string     `json:"trace_id"`
	Status      string     `json:"status"`
	BeginUnixNS int64      `json:"begin_unix_ns,omitempty"`
	Nodes       []string   `json:"nodes,omitempty"`
	Spans       []spanView `json:"spans"`
	Dropped     int64      `json:"dropped,omitempty"`
}

func (j *Job) traceTimeline() traceView {
	tv := traceView{
		JobID:   j.id,
		TraceID: j.traceID,
		Status:  j.statusNow(),
	}
	if j.rec == nil {
		return tv
	}
	tv.BeginUnixNS = j.rec.Begin().UnixNano()
	spans, dropped := j.rec.Snapshot()
	tv.Dropped = dropped
	tv.Spans = make([]spanView, len(spans))
	for i, sd := range spans {
		sv := spanView{
			Name:    sd.Name,
			StartMS: float64(sd.Start) / float64(time.Millisecond),
			DurMS:   float64(sd.Dur) / float64(time.Millisecond),
		}
		if sd.Dur < 0 {
			sv.DurMS = -1
		}
		if sd.NAttr > 0 {
			sv.Attrs = make(map[string]int64, sd.NAttr)
			for a := 0; a < sd.NAttr; a++ {
				sv.Attrs[sd.Attrs[a].Key] = sd.Attrs[a].Value
			}
		}
		tv.Spans[i] = sv
	}
	return tv
}

// tryStart moves a queued job to running; it reports false when the
// job was canceled while waiting in the pool queue, or claimed by a
// finish (a cache hit at the seal) that has not yet published its
// status, in which case the worker must skip it.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued || j.finishing {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// startCancel moves the job from the given status (queued, or running
// for a cancelable kind) to canceling and fires its context. A queued
// job so claimed is never started by a worker; the caller finishes it.
// It returns the job's view at the transition, taken before the context
// fires, so a worker that settles the job at once cannot turn the
// DELETE's answer into its own terminal status. It reports false —
// without changing anything — when the job is in any other status (the
// DELETE handler's 409).
func (j *Job) startCancel(from string) (jobView, bool) {
	j.mu.Lock()
	if j.status != from {
		j.mu.Unlock()
		return jobView{}, false
	}
	j.status = StatusCanceling
	v := j.viewLocked()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return v, true
}

// statusNow returns the current status string.
func (j *Job) statusNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// settle publishes a terminal status — done with the job's document, or
// failed or canceled with err — and fires the job's context to release
// its resources. A terminal status is never left: settle on a job that
// already has one changes nothing.
func (j *Job) settle(status string, doc any, err error, now time.Time) {
	j.mu.Lock()
	if terminalStatus(j.status) {
		j.mu.Unlock()
		return
	}
	j.status, j.finished = status, now
	switch d := doc.(type) {
	case *Result:
		j.result = d
	case *CorunDoc:
		j.corun = d
	case *ScheduleDoc:
		j.schedule = d
	}
	if err != nil {
		j.err = err.Error()
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func terminalStatus(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// terminal returns the completion time of a done, failed, or canceled
// job; ok is false while the job is still queued or running.
func (j *Job) terminal() (fin time.Time, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished, terminalStatus(j.status)
}
