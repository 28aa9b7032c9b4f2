package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codelayout/internal/core"
	"codelayout/internal/obs"
)

// debugRingCount counts the /v1/debug/jobs summaries for one job.
func debugRingCount(t *testing.T, s *Server, id string) int {
	t.Helper()
	rr := httptest.NewRecorder()
	s.handleDebugJobs(rr, httptest.NewRequest(http.MethodGet, "/v1/debug/jobs", nil))
	var body struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(rr.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sum := range body.Jobs {
		if sum.ID == id {
			n++
		}
	}
	return n
}

// TestCanceledQueuedJobStaysCanceled: a job canceled while queued is
// terminal. When a worker reaches it anyway — here with its deadline
// already past and its context fired, so the expiry check would trip
// too — it stays canceled, is counted once, and leaves one debug-ring
// summary.
func TestCanceledQueuedJobStaysCanceled(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	real := s.optimize
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return real(ctx, req)
	}

	// j1 occupies the worker; j2 sits in the queue until canceled.
	if _, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=400"); code != http.StatusAccepted {
		t.Fatalf("submit 1 status %d", code)
	}
	<-started
	v2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=401")
	if code != http.StatusAccepted {
		t.Fatalf("submit 2 status %d", code)
	}
	if _, code := deleteJob(t, ts, v2.ID); code != http.StatusOK {
		t.Fatalf("DELETE queued job = %d, want 200", code)
	}

	s.mu.Lock()
	j := s.jobs[v2.ID]
	s.mu.Unlock()
	reqCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, ok := s.beginJob(context.Background(), j, time.Now().Add(-time.Second), reqCtx); ok {
		t.Fatal("worker started a canceled job")
	}
	if st := j.statusNow(); st != StatusCanceled {
		t.Errorf("status = %q, want %q", st, StatusCanceled)
	}
	if got := metricValue(t, ts, "layoutd_jobs_failed_total"); got != 0 {
		t.Errorf("jobs_failed_total = %v, want 0", got)
	}
	if got := metricValue(t, ts, "layoutd_jobs_canceled_total"); got != 1 {
		t.Errorf("jobs_canceled_total = %v, want 1", got)
	}
	if n := debugRingCount(t, s, v2.ID); n != 1 {
		t.Errorf("debug ring holds %d summaries of the job, want 1", n)
	}
}

// TestFinishPublishesStatusLast: by the time a worker publishes a
// job's terminal status, the job's spans are folded into
// layoutd_phase_seconds, its completion is counted and its summary is
// on the debug ring — so a poller that reads "done" finds all three.
// settle fires the job's context right after publishing, which is
// where this test looks.
func TestFinishPublishesStatusLast(t *testing.T) {
	s := newRetentionServer(t, Config{})
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		return &Result{Digest: req.digest}, nil
	}
	opt, err := core.OptimizerByName("func-affinity")
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{id: "job-1", status: StatusQueued, created: time.Now(),
		rec: obs.NewRecorder(16), logger: obs.NopLogger}
	var fired bool
	var problems []string
	j.cancel = func() {
		fired = true
		if st := j.statusNow(); st != StatusDone {
			problems = append(problems, "status "+st+" at publish")
		}
		var buf bytes.Buffer
		if err := s.metrics.reg.WritePrometheus(&buf); err != nil {
			t.Error(err)
		}
		for _, want := range []string{
			`layoutd_phase_seconds_count{phase="optimize"} 1`,
			`layoutd_jobs_completed_total 1`,
		} {
			if !strings.Contains(buf.String(), want+"\n") {
				problems = append(problems, "missing "+want)
			}
		}
		if debugRingCount(t, s, j.id) != 1 {
			problems = append(problems, "no debug-ring summary")
		}
	}
	s.runJob(context.Background(), j, &jobRequest{
		opt: opt, digest: testKey(1), deadline: time.Now().Add(time.Minute), ctx: context.Background(),
	})
	if st := j.statusNow(); st != StatusDone {
		t.Fatalf("job ended %q", st)
	}
	if !fired {
		t.Fatal("finishing the job did not fire its context")
	}
	if problems != nil {
		t.Fatalf("status published before the job's bookkeeping: %v", problems)
	}
}

// TestTerminalStatusIsFinal: neither settle nor finish moves a job out
// of a terminal status, and finish on a terminal job counts and records
// nothing.
func TestTerminalStatusIsFinal(t *testing.T) {
	s := newRetentionServer(t, Config{})
	for _, st := range []string{StatusDone, StatusFailed, StatusCanceled} {
		j := &Job{id: "job-" + st, status: st, err: "first"}
		j.settle(StatusFailed, nil, errors.New("second"), time.Now())
		s.finish(j, StatusFailed, nil, errors.New("third"))
		if v := j.view(); v.Status != st || v.Error != "first" {
			t.Errorf("%s job became %s (%q)", st, v.Status, v.Error)
		}
		if n := debugRingCount(t, s, j.id); n != 0 {
			t.Errorf("%s job: %d debug-ring summaries, want 0", st, n)
		}
	}
	if n := s.metrics.failed.Value(); n != 0 {
		t.Errorf("jobs_failed_total = %d, want 0", n)
	}
}

// TestCancelAnswersCanceling: the DELETE of a running cancelable job
// answers with the job as it was at the running → canceling transition,
// even when the worker settles the job the moment its context fires.
// Here the job's cancel func settles it synchronously, the worst case
// of that race.
func TestCancelAnswersCanceling(t *testing.T) {
	j := &Job{id: "job-corun", kind: jobKindCorun, status: StatusRunning}
	j.cancel = func() { j.settle(StatusCanceled, nil, errors.New("canceled"), time.Now()) }
	v, ok := j.startCancel(StatusRunning)
	if !ok {
		t.Fatal("startCancel refused a running job")
	}
	if v.Status != StatusCanceling {
		t.Errorf("view at cancel = %q, want canceling", v.Status)
	}
	if got := j.statusNow(); got != StatusCanceled {
		t.Errorf("status after the worker settled = %q, want canceled", got)
	}
	if _, ok := j.startCancel(StatusRunning); ok {
		t.Error("startCancel accepted a settled job")
	}
}
