package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Store admin endpoints: the node-local primitives cluster replication
// is built on, useful standalone for ops. They never forward — each
// node answers for its own disk.
//
//	GET    /v1/store           list held blobs (key, kind, size, last access)
//	                           ?kind= filters; ?format=keys emits the
//	                           compact one-key-per-line text census the
//	                           anti-entropy digest-set exchange consumes
//	GET    /v1/store/{key}     raw blob bytes, digest header attached
//	DELETE /v1/store/{key}     evict a blob (disk and memory tiers)
//	PUT    /v1/replicate/{key} accept a replicated blob, digest-checked

// storeEntryView is one row of GET /v1/store.
type storeEntryView struct {
	Key        string `json:"key"`
	Kind       string `json:"kind"`
	Size       int64  `json:"size"`
	LastAccess string `json:"last_access"`
}

// handleStoreList is GET /v1/store: every blob the durable tier holds,
// most recently used first. ?kind= restricts to one key kind
// (result/trace/pair/schedule); ?format=keys switches to a plain-text
// one-key-per-line listing — the compact census the anti-entropy
// sweeper exchanges every period, cheap enough to serve per-peer
// per-sweep without JSON encoding the metadata nobody asked for.
func (s *Server) handleStoreList(w http.ResponseWriter, r *http.Request) {
	if s.disk == nil {
		httpError(w, http.StatusNotFound, errors.New("no durable store configured (-store)"))
		return
	}
	kindFilter := r.URL.Query().Get("kind")
	switch kindFilter {
	case "", kindResult, kindTrace, kindPair, kindSchedule, "unknown":
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown kind %q", kindFilter))
		return
	}
	ents := s.disk.Entries()
	if r.URL.Query().Get("format") == "keys" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, e := range ents {
			if kindFilter != "" {
				kind, ok := storeKeyKind(e.Key)
				if !ok {
					kind = "unknown"
				}
				if kind != kindFilter {
					continue
				}
			}
			fmt.Fprintln(w, e.Key)
		}
		return
	}
	views := make([]storeEntryView, 0, len(ents))
	var total int64
	for _, e := range ents {
		kind, ok := storeKeyKind(e.Key)
		if !ok {
			kind = "unknown"
		}
		if kindFilter != "" && kind != kindFilter {
			continue
		}
		views = append(views, storeEntryView{
			Key:        e.Key,
			Kind:       kind,
			Size:       e.Size,
			LastAccess: e.LastAccess.UTC().Format(time.RFC3339),
		})
		total += e.Size
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"entries": views,
		"count":   len(views),
		"bytes":   total,
	})
}

// handleStoreGet is GET /v1/store/{key}: the raw blob bytes, with the
// payload's SHA-256 in the digest header so a fetching peer can verify
// what it received. Peers use this as the read side of replication
// fall-through.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, ok := storeKeyKind(key); !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed store key %q", key))
		return
	}
	if s.disk == nil {
		httpError(w, http.StatusNotFound, errors.New("no durable store configured (-store)"))
		return
	}
	data, ok := s.disk.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no blob %q", key))
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerDigest, hex.EncodeToString(sum[:]))
	w.Write(data)
}

// handleStoreDelete is DELETE /v1/store/{key}: drop a blob from the
// disk tier and purge the corresponding memory tier so the next read
// cannot resurrect it locally. Safe under content addressing: deleting
// a key never loses information another key depends on, and a re-put of
// the same key carries identical bytes.
func (s *Server) handleStoreDelete(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	kind, ok := storeKeyKind(key)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed store key %q", key))
		return
	}
	if s.disk == nil {
		httpError(w, http.StatusNotFound, errors.New("no durable store configured (-store)"))
		return
	}
	deleted := s.disk.Delete(key)
	switch kind {
	case kindResult:
		s.cache.drop(key)
	case kindTrace:
		s.traces.drop(key[2:])
	case kindPair:
		s.pairs.drop(key[2:])
	case kindSchedule:
		s.schedules.drop(key[2:])
	}
	if !deleted {
		httpError(w, http.StatusNotFound, fmt.Errorf("no blob %q", key))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": key})
}

// handleReplicate is PUT /v1/replicate/{key}: accept a blob pushed by a
// peer's write-behind replication queue. The request is authenticated
// by content: the digest header must equal the SHA-256 of the body, so
// a corrupted or forged push is rejected without trusting the sender.
// The write is flushed before the ack — a 201 means the replica is
// durable, which is what lets the owner die without losing the blob.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, ok := storeKeyKind(key); !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("malformed store key %q", key))
		return
	}
	if s.disk == nil {
		httpError(w, http.StatusServiceUnavailable, errors.New("no durable store configured (-store); cannot hold replicas"))
		return
	}
	want := r.Header.Get(headerDigest)
	if want == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing %s header", headerDigest))
		return
	}
	body, err := readBody(w, r, s.cfg.MaxTraceBytes)
	if err != nil {
		httpError(w, badBodyStatus(err), err)
		return
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("body digest %s does not match %s header %s", got, headerDigest, want))
		return
	}
	s.disk.Put(key, body)
	s.disk.Flush()
	if s.metrics.replicateReceived != nil {
		s.metrics.replicateReceived.Inc()
	}
	writeJSON(w, http.StatusCreated, map[string]string{"replicated": key})
}
