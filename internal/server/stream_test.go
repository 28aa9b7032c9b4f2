package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"codelayout/internal/store"
)

// streamTestWindow is deliberately tiny — the ring floor of three
// 32 KiB buffers — so even the suite's small traces exercise producer
// backpressure.
const streamTestWindow = 1

func newStreamServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StreamWindow == 0 {
		cfg.StreamWindow = streamTestWindow
	}
	return newTestServer(t, cfg)
}

// TestStreamedMatchesBuffered is the ingest oracle at the HTTP layer:
// the same trace submitted to a default-window server, which holds it
// whole, and to a tiny-window one, which analyzes it while it uploads
// (or, for a non-feed optimizer, decodes its spool after the seal),
// must produce identical results — same content address, same report,
// same miss ratios — at analysis concurrency 1 and N.
func TestStreamedMatchesBuffered(t *testing.T) {
	raw, _ := recordedTrace(t)
	for _, workers := range []int{1, 4} {
		for _, optName := range []string{"func-affinity", "bb-trg", "func-cmg"} {
			t.Run(fmt.Sprintf("%s/workers=%d", optName, workers), func(t *testing.T) {
				_, buffered := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: workers})
				_, streamed := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: workers})

				query := "prog=" + testProg + "&opt=" + optName
				vb, code := submitRaw(t, buffered, raw, query)
				if code != http.StatusAccepted {
					t.Fatalf("buffered submit status %d", code)
				}
				vs, code := submitRaw(t, streamed, raw, query)
				if code != http.StatusAccepted {
					t.Fatalf("streamed submit status %d", code)
				}
				db := waitJob(t, buffered, vb.ID)
				ds := waitJob(t, streamed, vs.ID)
				if db.Status != StatusDone || ds.Status != StatusDone {
					t.Fatalf("jobs: buffered %+v, streamed %+v", db, ds)
				}
				rb, rs := db.Result, ds.Result
				if rb == nil || rs == nil {
					t.Fatal("missing results")
				}
				// ElapsedMS is wall time, everything else must agree
				// byte for byte.
				rb.ElapsedMS, rs.ElapsedMS = 0, 0
				bj, _ := json.Marshal(rb)
				sj, _ := json.Marshal(rs)
				if !bytes.Equal(bj, sj) {
					t.Errorf("streamed result diverges from buffered:\nbuffered: %s\nstreamed: %s", bj, sj)
				}
				if ds.Digest == "" || ds.Digest != db.Digest {
					t.Errorf("streamed job digest %q, buffered %q", ds.Digest, db.Digest)
				}
			})
		}
	}
}

// TestStreamedCacheHit: resubmitting a streamed trace resolves from
// the content-addressed cache at the seal — the digest is only known
// once the upload finishes — and the POST itself answers 200 with the
// cached result, without recomputing.
func TestStreamedCacheHit(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	query := "prog=" + testProg + "&opt=func-affinity"
	v1, code := submitRaw(t, ts, raw, query)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	d1 := waitJob(t, ts, v1.ID)
	if d1.Status != StatusDone || d1.Cached {
		t.Fatalf("first job %+v", d1)
	}
	d2, code := submitRaw(t, ts, raw, query)
	if code != http.StatusOK {
		t.Fatalf("second submit status %d, want 200", code)
	}
	if d2.Status != StatusDone || !d2.Cached || d2.Result == nil {
		t.Fatalf("second job not served cached: %+v", d2)
	}
	if d2.Digest != d1.Digest {
		t.Errorf("cached digest %q != original %q", d2.Digest, d1.Digest)
	}
	if got := metricValue(t, ts, "layoutd_cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total = %v, want 1", got)
	}
}

// TestStreamedBadUploads: producer-side failures (malformed or empty
// containers) surface as 400 on the POST, exactly as in buffered mode.
func TestStreamedBadUploads(t *testing.T) {
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	cases := []struct {
		name     string
		body     []byte
		wantCode int
		wantMsg  string
	}{
		{"empty trace", encodeTrace(t, nil), 400, "empty"},
		{"truncated", []byte("CLTR\x01\x05\x02"), 400, "occurrence"},
	}
	for _, c := range cases {
		msg, code := errorBody(t, ts, c.body, "prog="+testProg+"&opt=func-affinity")
		if code != c.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", c.name, code, c.wantCode, msg)
		}
		if !strings.Contains(msg, c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, msg, c.wantMsg)
		}
	}
}

// TestStreamedFeedErrorFailsJob: a consumer-side failure (a trace
// referencing blocks the program doesn't have) aborts the stream. The
// error reaches the client either on the POST itself (the feed failed
// while the body was still arriving) or as a failed job (the upload
// completed first) — both ends of the race leave a clear record.
func TestStreamedFeedErrorFailsJob(t *testing.T) {
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	body := encodeTrace(t, []int32{0, 1, 1 << 24})
	v, code := submitRaw(t, ts, body, "prog="+testProg+"&opt=func-affinity")
	switch code {
	case http.StatusBadRequest:
		return // producer observed the abort before end-of-stream
	case http.StatusAccepted:
		done := waitJob(t, ts, v.ID)
		if done.Status != StatusFailed || !strings.Contains(done.Error, "references block") {
			t.Fatalf("job = %+v, want failed mentioning the bad block", done)
		}
	default:
		t.Fatalf("submit status %d, want 400 or 202", code)
	}
}

// TestStreamMetricsAndSpans: a streamed job counts in the stream
// family, releases every buffered byte, respects the window bound, and
// records the overlapped stream.decode / stream.feed spans in its
// waterfall.
func TestStreamMetricsAndSpans(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job %+v", done)
	}
	if got := metricValue(t, ts, "layoutd_stream_jobs_total"); got != 1 {
		t.Errorf("stream_jobs_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_stream_chunks_total"); got < 1 {
		t.Errorf("stream_chunks_total = %v, want >= 1", got)
	}
	if got := metricValue(t, ts, "layoutd_stream_buffered_bytes"); got != 0 {
		t.Errorf("stream_buffered_bytes = %v after completion, want 0", got)
	}
	peak := metricValue(t, ts, "layoutd_stream_buffered_peak_bytes")
	bound := float64(minStreamBuffers * streamChunkBytes)
	if peak <= 0 || peak > bound {
		t.Errorf("stream_buffered_peak_bytes = %v, want in (0, %v]", peak, bound)
	}
	if s.streamBytes.Load() != 0 {
		t.Errorf("internal stream byte count %d after completion", s.streamBytes.Load())
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv traceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	var haveDecode, haveFeed bool
	for _, sp := range tv.Spans {
		switch sp.Name {
		case "stream.decode":
			haveDecode = true
		case "stream.feed":
			haveFeed = true
		}
	}
	if !haveDecode || !haveFeed {
		t.Errorf("waterfall missing stream spans (decode=%v feed=%v): %+v", haveDecode, haveFeed, tv.Spans)
	}
}

// ---- resumable uploads ----

func newUploadServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	up, err := store.NewUploads(filepath.Join(t.TempDir(), "uploads"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uploads = up
	return newStreamServer(t, cfg)
}

func uploadCreate(t *testing.T, ts *httptest.Server) uploadView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/uploads", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var v uploadView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func uploadPatch(t *testing.T, ts *httptest.Server, id string, offset int64, chunk []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/uploads/"+id, bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Upload-Offset", strconv.FormatInt(offset, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// TestUploadResumableEndToEnd: chunked upload with an out-of-sync
// PATCH in the middle (the resume protocol: 409 carries the durable
// offset, the client continues from there), finalized into a streamed
// job whose digest matches a direct one-shot submission of the same
// bytes.
func TestUploadResumableEndToEnd(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	up := uploadCreate(t, ts)
	chunk := len(raw)/3 + 1
	var off int64
	replayedStale := false
	for int(off) < len(raw) {
		end := int(off) + chunk
		if end > len(raw) {
			end = len(raw)
		}
		if !replayedStale && off > 0 {
			// A client that lost the previous PATCH's response retries
			// at a stale offset: 409, durable offset in the header.
			replayedStale = true
			resp, _ := uploadPatch(t, ts, up.ID, 0, raw[:chunk])
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("stale PATCH status %d, want 409", resp.StatusCode)
			}
			got, err := strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64)
			if err != nil || got != off {
				t.Fatalf("409 Upload-Offset %q, want %d", resp.Header.Get("Upload-Offset"), off)
			}
		}
		resp, body := uploadPatch(t, ts, up.ID, off, raw[off:end])
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PATCH at %d: status %d: %s", off, resp.StatusCode, body)
		}
		off, _ = strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64)
		if off != int64(end) {
			t.Fatalf("PATCH advanced to %d, want %d", off, end)
		}
	}

	// GET reports the durable offset (what a resuming client asks).
	resp, err := http.Get(ts.URL + "/v1/uploads/" + up.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st uploadView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Offset != int64(len(raw)) {
		t.Fatalf("status offset %d, want %d", st.Offset, len(raw))
	}

	fin, err := http.Post(ts.URL+"/v1/uploads/"+up.ID+"/finalize?prog="+testProg+"&opt=func-affinity", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if err := json.NewDecoder(fin.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != http.StatusAccepted {
		t.Fatalf("finalize status %d", fin.StatusCode)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("finalized job %+v", done)
	}
	sum := sha256.Sum256(raw)
	if done.Result.TraceDigest != hex.EncodeToString(sum[:]) {
		t.Errorf("trace digest %q, want sha256 of the uploaded bytes", done.Result.TraceDigest)
	}

	// The chunked path and the one-shot path are the same submission:
	// same content address, served from cache on resubmit.
	d2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusOK {
		t.Fatalf("direct submit status %d, want 200", code)
	}
	if d2.Status != StatusDone || !d2.Cached || d2.Digest != done.Digest {
		t.Errorf("one-shot submission = %+v, want cached with digest %q", d2, done.Digest)
	}

	// The session is gone after finalize.
	if resp, _ := uploadPatch(t, ts, up.ID, int64(len(raw)), []byte("x")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("PATCH after finalize status %d, want 404", resp.StatusCode)
	}
	if got := metricValue(t, ts, "layoutd_upload_sessions"); got != 0 {
		t.Errorf("upload_sessions = %v after finalize, want 0", got)
	}
}

// TestUploadFinalizeBufferedFallback: an optimizer without feed
// support still works through the chunked-upload door — over the
// window, its worker decodes the sealed spool whole after the seal.
func TestUploadFinalizeBufferedFallback(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	up := uploadCreate(t, ts)
	resp, body := uploadPatch(t, ts, up.ID, 0, raw)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PATCH status %d: %s", resp.StatusCode, body)
	}
	fin, err := http.Post(ts.URL+"/v1/uploads/"+up.ID+"/finalize?prog="+testProg+"&opt=func-callgraph", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fin.Body.Close()
	if fin.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(fin.Body)
		t.Fatalf("finalize status %d: %s", fin.StatusCode, raw)
	}
	var v jobView
	if err := json.NewDecoder(fin.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("fallback job %+v", done)
	}
	if done.Result.Optimizer != "func-callgraph" {
		t.Errorf("optimizer %q", done.Result.Optimizer)
	}
}

// TestUploadEndpointErrors: the protocol's edges — unknown sessions,
// bad offsets, discard, empty finalize.
func TestUploadEndpointErrors(t *testing.T) {
	_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	if resp, _ := uploadPatch(t, ts, "nope", 0, []byte("x")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("PATCH unknown session: %d, want 404", resp.StatusCode)
	}

	up := uploadCreate(t, ts)
	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/uploads/"+up.ID, strings.NewReader("x"))
	resp, err := http.DefaultClient.Do(req) // no Upload-Offset header
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PATCH without Upload-Offset: %d, want 400", resp.StatusCode)
	}

	// Empty finalize is rejected and consumes the session.
	fin, err := http.Post(ts.URL+"/v1/uploads/"+up.ID+"/finalize?prog="+testProg+"&opt=func-affinity", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != http.StatusBadRequest {
		t.Errorf("empty finalize: %d, want 400", fin.StatusCode)
	}

	// Discard removes the session.
	up2 := uploadCreate(t, ts)
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/uploads/"+up2.ID, nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: %d, want 204", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/uploads/" + up2.ID); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET after discard: %d, want 404", resp.StatusCode)
		}
	}

	// Finalize with bad params leaves the session intact for a retry.
	up3 := uploadCreate(t, ts)
	fin, err = http.Post(ts.URL+"/v1/uploads/"+up3.ID+"/finalize?prog="+testProg+"&opt=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-opt finalize: %d, want 400", fin.StatusCode)
	}
	if resp, _ := uploadPatch(t, ts, up3.ID, 0, []byte{}); resp.StatusCode != http.StatusNoContent {
		t.Errorf("session gone after rejected finalize: %d", resp.StatusCode)
	}
}

// TestMultipartFieldOverflow: an oversize prog/opt/prune form field is
// a 400, not a silent truncation to a plausible-looking value.
func TestMultipartFieldOverflow(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormField("prog")
	fw.Write([]byte(strings.Repeat("x", maxFormFieldBytes+1)))
	tw, _ := mw.CreateFormFile("trace", "trace.cltr")
	tw.Write(raw)
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs?opt=func-affinity", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("error %s does not mention the field bound", body)
	}

	// At exactly the bound the field still works.
	var ok bytes.Buffer
	mw = multipart.NewWriter(&ok)
	fw, _ = mw.CreateFormField("opt")
	fw.Write([]byte("func-affinity"))
	tw, _ = mw.CreateFormFile("trace", "trace.cltr")
	tw.Write(raw)
	mw.Close()
	resp2, err := http.Post(ts.URL+"/v1/jobs?prog="+testProg, mw.FormDataContentType(), &ok)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Errorf("in-bound field status %d: %s", resp2.StatusCode, body)
	}
}

// TestStreamedTraceRetainedWithoutStore: with no durable tier, a
// streamed submission's trace is decoded into the memory tier, so
// /v1/corun can replay the layouts built from it.
func TestStreamedTraceRetainedWithoutStore(t *testing.T) {
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	dA := submitDone(t, ts, "func-affinity")
	dB := submitDone(t, ts, "func-trg")
	if got := metricValue(t, ts, "layoutd_stream_jobs_total"); got != 2 {
		t.Fatalf("stream_jobs_total = %v, want both submissions streamed", got)
	}
	v, msg, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": dA, "b": dB})
	if code != http.StatusAccepted {
		t.Fatalf("corun status %d (%s), want 202", code, msg)
	}
	if done := waitJob(t, ts, v.ID); done.Status != StatusDone || done.Corun == nil {
		t.Fatalf("corun job: %+v", done)
	}
}

// ---- the seal ----

// TestSealHitAnswersPost: on a default-window server, resubmitting a
// trace that fits the window is answered at the seal. The POST itself
// returns 200 with the cached result, and no analysis runs: no chunk is
// fed and the job's trace has none of the analysis spans.
func TestSealHitAnswersPost(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1, StreamWindow: DefaultStreamWindow})
	query := "prog=" + testProg + "&opt=func-affinity"
	v1, code := submitRaw(t, ts, raw, query)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	if d1 := waitJob(t, ts, v1.ID); d1.Status != StatusDone {
		t.Fatalf("first job %+v", d1)
	}
	chunks := metricValue(t, ts, "layoutd_stream_chunks_total")

	v2, code := submitRaw(t, ts, raw, query)
	if code != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", code)
	}
	if v2.Status != StatusDone || !v2.Cached || v2.Result == nil || v2.Digest != v1.Digest {
		t.Fatalf("resubmit = %+v, want done and cached with the result, digest %s", v2, v1.Digest)
	}
	if got := metricValue(t, ts, "layoutd_stream_chunks_total"); got != chunks {
		t.Errorf("stream_chunks_total moved %v -> %v on a cache hit", chunks, got)
	}
	if ran, dropped := analysisSpans(t, ts, v2.ID); len(ran) > 0 || dropped > 0 {
		t.Errorf("cache hit ran the analysis: spans %v, %d dropped", ran, dropped)
	}
}

// analysisSpans returns the spans in a job's trace timeline that only an
// analysis records — the fed kernels' stream.feed, and the resident
// pipeline's trace.prune and kernel builds — and how many spans the
// timeline dropped. A finished job's recorder drops, and counts, every
// span started after the finish, so an analysis that runs after a hit
// answered the job shows only in that count.
func analysisSpans(t *testing.T, ts *httptest.Server, id string) (ran []string, dropped int64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv traceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tv.Spans {
		switch sp.Name {
		case "stream.feed", "trace.prune", "affinity.hierarchy", "trg.build":
			ran = append(ran, sp.Name)
		}
	}
	return ran, tv.Dropped
}

// TestSealHitWithWorkerStarted: finish has one owner per job. Here the
// worker has already started — it waits on the ring for the seal —
// when the seal hits the cache: the handler answers and finishes the
// job, the worker does no work, and the job is recorded once.
func TestSealHitWithWorkerStarted(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	started := make(chan struct{}, 2)
	returned := make(chan error, 2)
	real := s.optimize
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		started <- struct{}{}
		res, err := real(ctx, req)
		returned <- err
		return res, err
	}
	query := "prog=" + testProg + "&opt=func-affinity"
	v1, code := submitRaw(t, ts, raw, query)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	if d1 := waitJob(t, ts, v1.ID); d1.Status != StatusDone {
		t.Fatalf("first job %+v", d1)
	}
	<-started
	<-returned

	type reply struct {
		v    jobView
		code int
		err  error
	}
	replies := make(chan reply, 1)
	pr, pw := io.Pipe()
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "application/octet-stream", pr)
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		replies <- reply{v: v, code: resp.StatusCode, err: err}
	}()
	half := len(raw) / 2
	if _, err := pw.Write(raw[:half]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started: // the worker is in the pipeline, before the seal
	case <-time.After(10 * time.Second):
		pw.CloseWithError(errors.New("test gave up"))
		t.Fatal("the worker did not start before the seal")
	}
	if _, err := pw.Write(raw[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	r := <-replies
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK || r.v.Status != StatusDone || !r.v.Cached || r.v.Result == nil {
		t.Fatalf("resubmit = %d %+v, want 200, done and cached", r.code, r.v)
	}
	if err := <-returned; err == nil {
		t.Error("the worker ran the pipeline for a job answered at the seal")
	}
	if ran, dropped := analysisSpans(t, ts, r.v.ID); len(ran) > 0 || dropped > 0 {
		t.Errorf("the worker ran the analysis of a job answered at the seal: spans %v, %d dropped", ran, dropped)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Running() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the worker did not return")
		}
		time.Sleep(time.Millisecond)
	}

	if n := debugRingCount(t, s, r.v.ID); n != 1 {
		t.Errorf("debug ring holds %d summaries of the job, want 1", n)
	}
	if got := metricValue(t, ts, "layoutd_cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_jobs_failed_total"); got != 0 {
		t.Errorf("jobs_failed_total = %v, want 0", got)
	}
	if got := metricValue(t, ts, "layoutd_jobs_completed_total"); got != 1 {
		t.Errorf("jobs_completed_total = %v, want 1", got)
	}
}

// TestInflightBytesDefaultPath: a default-window job counts its upload
// size in layoutd_inflight_bytes while it is queued or running, and
// releases it when done.
func TestInflightBytesDefaultPath(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1, StreamWindow: DefaultStreamWindow})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	real := s.optimize
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		started <- struct{}{}
		<-release
		return real(ctx, req)
	}
	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the job never reached the pipeline")
	}
	if got := metricValue(t, ts, "layoutd_inflight_bytes"); got != float64(len(raw)) {
		t.Errorf("inflight_bytes = %v while the job is blocked, want the upload size %d", got, len(raw))
	}
	close(release)
	if done := waitJob(t, ts, v.ID); done.Status != StatusDone {
		t.Fatalf("job %+v", done)
	}
	if got := metricValue(t, ts, "layoutd_inflight_bytes"); got != 0 {
		t.Errorf("inflight_bytes = %v after the job, want 0", got)
	}
}
