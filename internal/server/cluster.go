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
	"net/http"
	"net/url"
	"runtime/debug"
	"strings"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/obs"
	"codelayout/internal/store"
)

// Header aliases so the rest of the package reads without the cluster
// qualifier.
const (
	headerDigest      = cluster.DigestHeader
	headerForward     = cluster.ForwardHeader
	headerForwardedTo = cluster.ForwardedToHeader
)

// ---- two-tier blob plumbing ----

// blobStore is what the four content caches (results, traces, pair and
// schedule documents) use as their durable tier. A single node talks
// straight to *store.Store; a cluster member goes through clusterBlobs,
// which adds peer fetch-through on a local miss and write-behind
// replication on every put — so all four caches became cluster-aware
// without changing their logic.
type blobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

type clusterBlobs struct {
	disk *store.Store // may be nil: memory-only cluster member
	cl   *cluster.Cluster
	srv  *Server // set after construction; source of metrics
}

func (b *clusterBlobs) Get(key string) ([]byte, bool) {
	if b.disk != nil {
		if data, ok := b.disk.Get(key); ok {
			return data, true
		}
	}
	// Local miss: ask the peers holding the key's replicas. The fetch
	// verifies the peer's digest header, and the blob is re-put locally
	// so the next read is a disk hit.
	data, _, err := b.cl.FetchBlob(context.Background(), key)
	if err != nil {
		return nil, false
	}
	if m := b.srv.metrics; m != nil && m.clusterFetches != nil {
		m.clusterFetches.Inc()
	}
	if b.disk != nil {
		b.disk.Put(key, data)
	}
	return data, true
}

func (b *clusterBlobs) Put(key string, data []byte) {
	if b.disk != nil {
		b.disk.Put(key, data)
	}
	b.cl.Replicate(key, data)
}

// ---- ownership forwarding ----

// shouldForward reports whether this request is a candidate for
// ownership routing: the node is clustered and the request has not
// already been forwarded once (loop prevention — a forwarded request is
// always served locally, whatever this node thinks about ownership).
func (s *Server) shouldForward(r *http.Request) bool {
	return s.cluster != nil && r.Header.Get(headerForward) == ""
}

// forwardToOwner proxies the request to the effective owner of key when
// that is another node. It reports whether the request was fully
// handled; false means the caller serves locally — either this node
// owns the key, or the owner was unreachable and local service beats an
// error (always correct under content addressing, at worst it
// recomputes).
func (s *Server) forwardToOwner(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	owner := s.cluster.Owner(key)
	if owner.ID == s.cluster.SelfID() {
		return false
	}
	return s.proxy(w, r, owner, body)
}

// proxy replays the request against peer with the forward marker set,
// then relays status, headers, and body back, tagging the response with
// the serving node so cluster-aware clients can re-base onto the owner.
// The peer.forward phase is observed whether or not the attempt lands.
//
// The hop carries W3C trace context: the caller's trace ID is adopted
// when the inbound request has a valid traceparent (else one is
// minted), and the outbound header gets a fresh span ID — so the job
// the owner creates joins the caller's trace. Successful forwarded
// POSTs additionally record a local "peer.forward" span keyed by the
// job ID the owner returned, which cross-node trace assembly
// (fwdtrace.go) later merges into the owner's timeline.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, peer cluster.Peer, body []byte) bool {
	start := time.Now()
	target := peer.URL + r.URL.RequestURI()
	traceID := requestTraceID(r)
	tpHeader := obs.FormatTraceparent(traceID, obs.NewSpanID(), true)
	rt := &cluster.Retrier{Max: 1, Base: 100 * time.Millisecond,
		Logf: func(format string, args ...any) {
			s.logger.Debug("peer retry", "msg", fmt.Sprintf(format, args...))
		}}
	resp, err := rt.Do("forward "+r.Method+" "+r.URL.Path, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header = r.Header.Clone()
		req.Header.Set(headerForward, s.cluster.SelfID())
		req.Header.Set(obs.TraceparentHeader, tpHeader)
		return s.peerClient.Do(req)
	})
	s.metrics.phase.With("peer.forward").Observe(time.Since(start).Seconds())
	if err != nil {
		// Transport failures mark the peer down so routing moves on
		// before the next health poll; a peer that answered (429/503
		// exhausted the budget) is alive, just busy.
		var uerr *url.Error
		if errors.As(err, &uerr) {
			s.cluster.ReportFailure(peer.ID)
		}
		if s.metrics.forwardErrors != nil {
			s.metrics.forwardErrors.Inc()
		}
		s.logger.Warn("peer forward failed; serving locally",
			"peer", peer.ID, "path", r.URL.Path, "error", err)
		return false
	}
	s.metrics.peerForwards.With(peer.ID).Inc()
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	h.Set(headerForwardedTo, peer.ID)
	w.WriteHeader(resp.StatusCode)
	if r.Method == http.MethodPost && resp.StatusCode < 300 {
		// A forwarded submission: relay the body while capturing the
		// owner's job ID, then log this hop as a forward span.
		s.relayForwardedSubmit(w, resp.Body, peer.ID, traceID, start)
		return true
	}
	io.Copy(w, resp.Body)
	return true
}

// forwardBody wraps a POST endpoint whose body names its owner: the
// body is buffered (bounded by limit), keyFn derives the routing key
// from it, and the request forwards to that key's owner. A request this
// node owns, or whose body keyFn cannot parse, is served locally from
// the buffered body — the handler owns rejecting it properly.
func (s *Server) forwardBody(limit int64, keyFn func(body []byte) (string, bool), next http.HandlerFunc) http.HandlerFunc {
	if s.cluster == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.shouldForward(r) {
			next(w, r)
			return
		}
		body, err := readBody(w, r, limit)
		if err != nil {
			httpError(w, badBodyStatus(err), err)
			return
		}
		if key, ok := keyFn(body); ok && s.forwardToOwner(w, r, key, body) {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		next(w, r)
	}
}

// traceRouteKey routes POST /v1/jobs by the sha256 of its body. For raw
// CLTR bodies the key equals the trace digest the server retains, so
// resubmissions of a profile always land on the node holding its
// memoized state; multipart bodies hash the whole envelope (boundary
// included), which is deterministic per request but not per profile —
// still correct, just without submit affinity.
func traceRouteKey(body []byte) (string, bool) {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), true
}

// corunRouteKey routes a pair analysis by its sorted digest pair, so
// (a, b) and (b, a) land on one node and share its memoized entries.
func corunRouteKey(body []byte) (string, bool) {
	var req struct {
		A string `json:"a"`
		B string `json:"b"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.A == "" || req.B == "" {
		return "", false
	}
	a, b := req.A, req.B
	if b < a {
		a, b = b, a
	}
	return a + "+" + b, true
}

// scheduleRouteKey routes a placement request by its digest list in
// request order — identical requests reuse one node's memoized pair
// matrix.
func scheduleRouteKey(body []byte) (string, bool) {
	var req struct {
		Digests []string `json:"digests"`
	}
	if err := json.Unmarshal(body, &req); err != nil || len(req.Digests) == 0 {
		return "", false
	}
	return strings.Join(req.Digests, "+"), true
}

// forwardDigest wraps the by-digest read endpoints (/v1/layouts/{d},
// /v1/corun/{d}): reads route to the digest's owner, whose store
// converges on holding the blob via replication. Malformed digests are
// served (rejected) locally.
func (s *Server) forwardDigest(next http.HandlerFunc) http.HandlerFunc {
	if s.cluster == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("digest")
		if !s.shouldForward(r) || !validDigest(key) {
			next(w, r)
			return
		}
		if s.forwardToOwner(w, r, key, nil) {
			return
		}
		next(w, r)
	}
}

// forwardJobID wraps the by-job-ID endpoints. Cluster job IDs are
// node-prefixed ("n2.job-7"), so any node can route a status poll,
// trace fetch, or cancel straight to the node running the job — no
// hashing involved. Unprefixed or unknown-node IDs are looked up
// locally (and 404 there).
func (s *Server) forwardJobID(next http.HandlerFunc) http.HandlerFunc {
	if s.cluster == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.shouldForward(r) {
			next(w, r)
			return
		}
		node, _, ok := strings.Cut(r.PathValue("id"), ".")
		if !ok || node == s.cluster.SelfID() {
			next(w, r)
			return
		}
		peer, known := s.cluster.PeerByID(node)
		if !known {
			next(w, r)
			return
		}
		if s.proxy(w, r, peer, nil) {
			return
		}
		next(w, r)
	}
}

// newJobID mints a job ID. Clustered nodes prefix their node ID so the
// ID itself routes follow-up requests (peer IDs cannot contain ".",
// so the prefix is unambiguous).
func (s *Server) newJobID() string {
	n := s.nextID.Add(1)
	if s.cluster != nil {
		return fmt.Sprintf("%s.job-%d", s.cluster.SelfID(), n)
	}
	return fmt.Sprintf("job-%d", n)
}

// nodeID names this node in /healthz: the configured override, else the
// cluster self ID, else empty (single node, field omitted).
func (s *Server) nodeID() string {
	if s.cfg.NodeID != "" {
		return s.cfg.NodeID
	}
	if s.cluster != nil {
		return s.cluster.SelfID()
	}
	return ""
}

// buildString renders the running binary's version for /healthz.
func buildString() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	return strings.TrimSpace(bi.GoVersion + " " + ver)
}
