package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"codelayout/internal/obs"
)

// Cross-node trace assembly. When a submission enters the cluster
// through a non-owner, the proxy hop records a forward span here, keyed
// by the job ID the owner minted. GET /v1/jobs/{id}/trace on the
// non-owner then follows the ID's node prefix to the owner, fetches its
// span timeline, and merges the local forward spans into one document —
// one trace ID, per-span node attribution, one shared time base.

// forwardLogJobs bounds the jobs with retained forward spans. FIFO
// eviction: traces are a debugging aid with the same retention spirit
// as the debug-jobs ring, not durable state.
const forwardLogJobs = 512

// maxForwardedBody caps how much of a forwarded response we buffer to
// learn the job ID; submissions' job views are small, so overflow means
// "not a job view" and the hop simply goes unlogged.
const maxForwardedBody = 1 << 20

// forwardSpan is one proxied hop observed by this node.
type forwardSpan struct {
	traceID string
	peer    string    // the node the request was forwarded to
	start   time.Time // wall-clock start of the hop
	dur     time.Duration
}

// forwardLog is a bounded map of job ID -> forward spans with FIFO
// eviction over job IDs.
type forwardLog struct {
	mu    sync.Mutex
	byJob map[string][]forwardSpan
	order *obs.Ring[string] // job IDs, oldest evicted first
}

func newForwardLog() *forwardLog {
	return &forwardLog{byJob: make(map[string][]forwardSpan), order: obs.NewRing[string](forwardLogJobs)}
}

func (l *forwardLog) record(jobID string, fs forwardSpan) {
	if jobID == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byJob[jobID]; !ok {
		if old, evicted := l.order.Push(jobID); evicted {
			delete(l.byJob, old)
		}
	}
	l.byJob[jobID] = append(l.byJob[jobID], fs)
}

func (l *forwardLog) get(jobID string) []forwardSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	spans := l.byJob[jobID]
	out := make([]forwardSpan, len(spans))
	copy(out, spans)
	return out
}

// relayForwardedSubmit copies a forwarded POST's response body to the
// client while teeing it into a capped buffer; if the body parses as a
// job view, the hop is recorded as a forward span under that job ID.
func (s *Server) relayForwardedSubmit(w io.Writer, body io.Reader, peerID, traceID string, start time.Time) {
	var buf bytes.Buffer
	_, _ = io.Copy(w, io.TeeReader(io.LimitReader(body, maxForwardedBody), &buf))
	_, _ = io.Copy(w, body) // relay any remainder past the capture cap
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &view); err != nil || view.ID == "" {
		return
	}
	s.fwdlog.record(view.ID, forwardSpan{
		traceID: traceID,
		peer:    peerID,
		start:   start,
		dur:     time.Since(start),
	})
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's recorded span
// timeline. Available at any point in the job's life — an in-progress
// job shows its open spans with dur_ms = -1. On a cluster node that
// does not hold the job, the ID's node prefix is followed to the owner
// and the owner's timeline is merged with this node's forward spans.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok {
		tv := j.traceTimeline()
		if self := s.nodeID(); self != "" && s.cluster != nil {
			for i := range tv.Spans {
				tv.Spans[i].Node = self
			}
			tv.Nodes = []string{self}
		}
		writeJSON(w, http.StatusOK, tv)
		return
	}
	// Not held locally: in cluster mode, follow the node prefix — unless
	// the request was itself forwarded (loop prevention).
	if s.shouldForward(r) {
		if tv, peerID, code, err := s.assembleRemoteTrace(r, id); err == nil {
			w.Header().Set(headerForwardedTo, peerID)
			writeJSON(w, http.StatusOK, tv)
			return
		} else if code != http.StatusNotFound {
			httpError(w, code, err)
			return
		}
	}
	httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	return
}

// assembleRemoteTrace fetches the owner's span timeline for a
// node-prefixed job ID and merges this node's forward spans into it.
// A StatusNotFound code means "fall through to the local 404" — the ID
// carries no known remote prefix; other codes are relayed to the
// client as-is.
func (s *Server) assembleRemoteTrace(r *http.Request, id string) (traceView, string, int, error) {
	node, _, hasPrefix := strings.Cut(id, ".")
	if !hasPrefix || node == s.cluster.SelfID() {
		return traceView{}, "", http.StatusNotFound, fmt.Errorf("unknown job %q", id)
	}
	peer, known := s.cluster.PeerByID(node)
	if !known {
		return traceView{}, "", http.StatusNotFound, fmt.Errorf("unknown job %q", id)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		peer.URL+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return traceView{}, "", http.StatusInternalServerError, err
	}
	req.Header.Set(headerForward, s.cluster.SelfID())
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.cluster.ReportFailure(peer.ID)
		return traceView{}, "", http.StatusBadGateway,
			fmt.Errorf("trace fetch from %s failed: %w", peer.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Relay the owner's verdict (usually its own 404).
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var ev struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &ev) == nil && ev.Error != "" {
			msg = ev.Error
		}
		code := resp.StatusCode
		if code == http.StatusNotFound {
			// Owner doesn't know the job either; keep the local 404 shape
			// but don't mask a more specific remote message.
			return traceView{}, "", http.StatusNotFound, fmt.Errorf("%s", msg)
		}
		return traceView{}, "", code, fmt.Errorf("trace fetch from %s: %s", peer.ID, msg)
	}
	var tv traceView
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxForwardedBody)).Decode(&tv); err != nil {
		return traceView{}, "", http.StatusBadGateway,
			fmt.Errorf("trace fetch from %s: bad body: %w", peer.ID, err)
	}
	s.mergeForwardSpans(&tv, peer.ID, id)
	return tv, peer.ID, http.StatusOK, nil
}

// mergeForwardSpans folds this node's forward spans for jobID into the
// owner's timeline. The owner's span offsets are relative to its
// recorder epoch (BeginUnixNS); the merged document re-bases everything
// onto the earliest contributing instant so the waterfall starts at 0,
// with the forward hop typically first — it began before the owner's
// recorder existed.
func (s *Server) mergeForwardSpans(tv *traceView, ownerID, jobID string) {
	self := s.nodeID()
	// The owner stamps nodes itself when clustered, but an older or
	// single-node peer may not have: attribute unstamped spans to it.
	for i := range tv.Spans {
		if tv.Spans[i].Node == "" {
			tv.Spans[i].Node = ownerID
		}
	}
	nodes := map[string]bool{ownerID: true}
	fwd := s.fwdlog.get(jobID)
	if len(fwd) > 0 {
		// New epoch: the earliest of the owner's epoch and the forward
		// hops' starts. When the owner's doc carries no epoch (empty
		// timeline), the forward spans form their own time base.
		epoch := tv.BeginUnixNS
		for _, f := range fwd {
			if ns := f.start.UnixNano(); epoch == 0 || ns < epoch {
				epoch = ns
			}
		}
		if shift := float64(tv.BeginUnixNS-epoch) / 1e6; tv.BeginUnixNS != 0 && shift != 0 {
			for i := range tv.Spans {
				tv.Spans[i].StartMS += shift
			}
		}
		for _, f := range fwd {
			if f.traceID != "" && tv.TraceID == "" {
				tv.TraceID = f.traceID
			}
			tv.Spans = append(tv.Spans, spanView{
				Name:    "peer.forward",
				Node:    self,
				StartMS: float64(f.start.UnixNano()-epoch) / 1e6,
				DurMS:   float64(f.dur) / float64(time.Millisecond),
			})
			nodes[self] = true
		}
		tv.BeginUnixNS = epoch
		sort.SliceStable(tv.Spans, func(i, j int) bool {
			return tv.Spans[i].StartMS < tv.Spans[j].StartMS
		})
	}
	tv.Nodes = tv.Nodes[:0]
	for n := range nodes {
		tv.Nodes = append(tv.Nodes, n)
	}
	sort.Strings(tv.Nodes)
}
