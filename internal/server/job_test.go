package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"codelayout/internal/core"
	"codelayout/internal/obs"
	"codelayout/internal/store"
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
	j.deadline = time.Now().Add(-time.Second) // the DELETE fired j.ctx
	if _, _, ok := s.beginJob(context.Background(), j); ok {
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
		ctx: context.Background(), deadline: time.Now().Add(time.Minute),
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
	s.runJob(context.Background(), j, func(ctx context.Context) (any, error) {
		return s.optimizeJob(ctx, &jobRequest{submission: &submission{opt: opt}, digest: testKey(1)})
	}, nil)
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

// TestLifecycleEveryKind: optimize, co-run and schedule jobs share one
// admission and one pool task. Behind a blocked worker and a full
// queue, each kind answers 429 with Retry-After, counts the rejection,
// tracks no job for it and leaves no spool behind; a queued job
// deleted finishes canceled, counted once with one debug summary; and
// a queued job whose deadline passes finishes failed.
func TestLifecycleEveryKind(t *testing.T) {
	raw, _ := recordedTrace(t)
	post := func(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return doReq(t, http.MethodPost, ts.URL+path, data, map[string]string{"Content-Type": "application/json"})
	}
	kinds := []struct {
		name string
		// submit posts the n-th job of the kind over the layouts a and
		// b; each optimization is its own content address.
		submit func(t *testing.T, ts *httptest.Server, a, b string, n int) (*http.Response, []byte)
	}{
		{"optimize", func(t *testing.T, ts *httptest.Server, _, _ string, n int) (*http.Response, []byte) {
			query := fmt.Sprintf("prog=%s&opt=func-affinity&prune=%d", testProg, 500+n)
			return doReq(t, http.MethodPost, ts.URL+"/v1/jobs?"+query, raw, nil)
		}},
		{"corun", func(t *testing.T, ts *httptest.Server, a, b string, _ int) (*http.Response, []byte) {
			return post(t, ts, "/v1/corun", map[string]string{"a": a, "b": b})
		}},
		{"schedule", func(t *testing.T, ts *httptest.Server, a, b string, _ int) (*http.Response, []byte) {
			return post(t, ts, "/v1/schedule", map[string]any{
				"digests":  []string{a, b},
				"topology": map[string]int{"domains": 2, "slotsPerDomain": 1},
			})
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			// Spools land beside the upload sessions, so this test's
			// directory holds every one the server makes.
			up, err := store.NewUploads(filepath.Join(t.TempDir(), "uploads"), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 2, OptWorkers: 1, Uploads: up})
			spools := func() []string {
				m, err := filepath.Glob(filepath.Join(up.Dir(), "stream-*.cltr"))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			var a, b string
			if k.name != "optimize" {
				a, b = submitDone(t, ts, "func-affinity"), submitDone(t, ts, "func-trg")
			}

			// An optimization occupies the one worker until released.
			started := make(chan struct{}, 1)
			release := make(chan struct{})
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
			blocker, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-callgraph")
			if code != http.StatusAccepted {
				close(release)
				t.Fatalf("blocker status %d", code)
			}
			<-started
			queued := func(n int) jobView {
				t.Helper()
				resp, body := k.submit(t, ts, a, b, n)
				var v jobView
				if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &v) != nil {
					close(release)
					t.Fatalf("submit %d = %d %s, want 202", n, resp.StatusCode, body)
				}
				return v
			}
			expiring, canceled := queued(1), queued(2)

			before, tracked := spools(), s.JobsTracked()
			resp, body := k.submit(t, ts, a, b, 3)
			if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "queue full") {
				t.Errorf("submit on a full queue = %d %s, want 429", resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if got := metricValue(t, ts, "layoutd_jobs_rejected_total"); got != 1 {
				t.Errorf("jobs_rejected_total = %v, want 1", got)
			}
			if got := s.JobsTracked(); got != tracked {
				t.Errorf("JobsTracked = %d after the rejection, want %d", got, tracked)
			}
			if after := spools(); len(after) != len(before) {
				t.Errorf("spools %v after the rejection, want %v", after, before)
			}

			if v, code := deleteJob(t, ts, canceled.ID); code != http.StatusOK || v.Status != StatusCanceled {
				t.Errorf("DELETE queued job = %d %q, want 200 canceled", code, v.Status)
			}
			// The worker reads the deadline only once it dequeues the
			// job, after the release below.
			s.mu.Lock()
			s.jobs[expiring.ID].deadline = time.Now().Add(-time.Second)
			s.mu.Unlock()
			close(release)

			if v := waitJob(t, ts, expiring.ID); v.Status != StatusFailed || !strings.Contains(v.Error, "job expired before running") {
				t.Errorf("expired job = %q %q, want failed, expired before running", v.Status, v.Error)
			}
			if v := waitJob(t, ts, blocker.ID); v.Status != StatusDone {
				t.Errorf("blocker = %+v, want done", v)
			}
			waitFor(t, 10*time.Second, "the worker to drain the queue", func() bool {
				return s.pool.QueueDepth() == 0 && s.pool.Running() == 0
			})
			if v := waitJob(t, ts, canceled.ID); v.Status != StatusCanceled {
				t.Errorf("deleted job = %q, want canceled", v.Status)
			}
			if got := metricValue(t, ts, "layoutd_jobs_canceled_total"); got != 1 {
				t.Errorf("jobs_canceled_total = %v, want 1", got)
			}
			if got := metricValue(t, ts, "layoutd_jobs_failed_total"); got != 1 {
				t.Errorf("jobs_failed_total = %v, want 1", got)
			}
			if n := debugRingCount(t, s, canceled.ID); n != 1 {
				t.Errorf("debug ring holds %d summaries of the deleted job, want 1", n)
			}
			if left := spools(); len(left) != 0 {
				t.Errorf("spools left after every job ended: %v", left)
			}
		})
	}
}
