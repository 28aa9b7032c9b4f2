package server

import (
	"net/http"
	"sync"
	"time"

	"codelayout/internal/obs"
)

// The structured event log: a bounded ring of cluster and durability
// state transitions — peer up/degraded/down, store breaker trips and
// recoveries, blob quarantines, anti-entropy repairs, replication
// drops — served newest-first at GET /v1/debug/events. Each recorded
// event also increments layoutd_events_total{kind}, so dashboards see
// rates and the ring holds the narrative. Like the debug-jobs ring,
// it is an always-on flight recorder with a hard memory bound.

// DefaultEventRing bounds the retained events when Config.EventRing
// is not positive.
const DefaultEventRing = 256

// Event kinds. The store-owned kinds (breaker_trip, breaker_recover,
// quarantine) arrive through store.SetEventHook with these same
// strings.
const (
	eventPeerUp          = "peer_up"
	eventPeerDegraded    = "peer_degraded"
	eventPeerDown        = "peer_down"
	eventSweepRepair     = "sweep_repair"
	eventReplicationDrop = "replication_drop"
)

// clusterEvent is one entry in the event ring.
type clusterEvent struct {
	Seq    int64  `json:"seq"`
	UnixMS int64  `json:"unix_ms"`
	Kind   string `json:"kind"`
	Node   string `json:"node,omitempty"` // the peer the event concerns, if any
	Detail string `json:"detail,omitempty"`
}

// eventRing is the event log: an obs.Ring of clusterEvents numbered by
// a sequence assigned under the same lock as the push, so newest-first
// is descending seq. record is safe from any goroutine, including hook
// callbacks holding other subsystems' locks — it only touches the ring
// and a counter.
type eventRing struct {
	mu      sync.Mutex
	seq     int64
	ring    *obs.Ring[clusterEvent]
	counter *obs.CounterVec // layoutd_events_total{kind}; set once at wiring
}

func newEventRing(size int) *eventRing {
	if size <= 0 {
		size = DefaultEventRing
	}
	return &eventRing{ring: obs.NewRing[clusterEvent](size)}
}

func (r *eventRing) record(kind, node, detail string) {
	now := time.Now().UnixMilli()
	r.mu.Lock()
	r.seq++
	r.ring.Push(clusterEvent{Seq: r.seq, UnixMS: now, Kind: kind, Node: node, Detail: detail})
	c := r.counter
	r.mu.Unlock()
	if c != nil {
		c.With(kind).Inc()
	}
}

// snapshot returns the retained events, newest first.
func (r *eventRing) snapshot() []clusterEvent { return r.ring.Snapshot() }

// handleDebugEvents is GET /v1/debug/events: the bounded ring of state
// transitions, newest first.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]clusterEvent{"events": s.events.snapshot()})
}

// handleDebugRuntime is GET /v1/debug/runtime: the runtime-telemetry
// sampler's bounded ring, newest first, plus its tick interval.
func (s *Server) handleDebugRuntime(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		IntervalMS int64               `json:"interval_ms"`
		Samples    []obs.RuntimeSample `json:"samples"`
	}{
		IntervalMS: s.runtime.Interval().Milliseconds(),
		Samples:    s.runtime.Snapshot(),
	})
}
