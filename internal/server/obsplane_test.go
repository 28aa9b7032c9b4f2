package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"codelayout/internal/obs"
)

// ---- inbound traceparent adoption ----

func TestRequestTraceID(t *testing.T) {
	mk := func(h string) *http.Request {
		r, _ := http.NewRequest(http.MethodPost, "/v1/jobs", nil)
		if h != "" {
			r.Header.Set(obs.TraceparentHeader, h)
		}
		return r
	}
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := requestTraceID(mk("00-" + tid + "-00f067aa0ba902b7-01")); got != tid {
		t.Fatalf("standard traceparent not adopted: got %q", got)
	}
	// Legacy 16-hex trace IDs are accepted on read.
	if got := requestTraceID(mk("00-00f067aa0ba902b7-00f067aa0ba902b7-01")); got != "00f067aa0ba902b7" {
		t.Fatalf("legacy traceparent not adopted: got %q", got)
	}
	fresh := regexp.MustCompile(`^[0-9a-f]{32}$`)
	for _, h := range []string{"", "garbage", "00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01"} {
		if got := requestTraceID(mk(h)); !fresh.MatchString(got) || got == tid {
			t.Fatalf("header %q: want fresh 32-hex ID, got %q", h, got)
		}
	}
}

// ---- structured event log ----

func TestDebugEventsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, EventRing: 4})
	s.events.record(eventPeerDown, "n9", "poll timeout")
	s.events.record(eventSweepRepair, "n1", "repaired 2 keys")

	resp, err := http.Get(ts.URL + "/v1/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Events []clusterEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if len(v.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(v.Events))
	}
	// Newest first.
	if v.Events[0].Kind != eventSweepRepair || v.Events[1].Kind != eventPeerDown {
		t.Fatalf("event order wrong: %+v", v.Events)
	}
	if v.Events[1].Node != "n9" || v.Events[1].Detail != "poll timeout" {
		t.Fatalf("event fields wrong: %+v", v.Events[1])
	}
	if v.Events[0].Seq <= v.Events[1].Seq {
		t.Fatalf("sequence not increasing: %+v", v.Events)
	}
	// Each record also incremented layoutd_events_total{kind}.
	if got := seriesOrZero(t, ts, "layoutd_events_total",
		map[string]string{"kind": eventPeerDown}); got != 1 {
		t.Fatalf("layoutd_events_total{kind=peer_down} = %v, want 1", got)
	}
}

func TestEventRingBound(t *testing.T) {
	r := newEventRing(3)
	for i := 0; i < 10; i++ {
		r.record("k", "n", "")
	}
	evs := r.snapshot()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(evs))
	}
	if evs[0].Seq != 10 || evs[2].Seq != 8 {
		t.Fatalf("wrong retained window: %+v", evs)
	}
}

// TestNegativeRingSizesMeanDefault: every bounded ring and tier knob
// treats a negative size like zero — the default — rather than
// panicking on a negative buffer size.
func TestNegativeRingSizesMeanDefault(t *testing.T) {
	s := newRetentionServer(t, Config{DebugJobRing: -1, TraceCacheEntries: -1, EventRing: -1, RuntimeRing: -1})
	s.events.record("k", "n", "")
	if got := len(s.events.snapshot()); got != 1 {
		t.Fatalf("event ring holds %d, want 1", got)
	}
	if s.traces.max != DefaultTraceCacheEntries {
		t.Fatalf("trace tier bound %d, want %d", s.traces.max, DefaultTraceCacheEntries)
	}
	fl := newForwardLog(-1)
	fl.record("job-1", forwardSpan{peer: "n2"})
	if got := fl.get("job-1"); len(got) != 1 {
		t.Fatalf("forward log holds %d spans for the job, want 1", len(got))
	}
}

// ---- runtime telemetry ----

func TestDebugRuntimeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, RuntimeSampleInterval: time.Hour})
	resp, err := http.Get(ts.URL + "/v1/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		IntervalMS int64               `json:"interval_ms"`
		Samples    []obs.RuntimeSample `json:"samples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.IntervalMS != time.Hour.Milliseconds() {
		t.Fatalf("interval_ms = %d", v.IntervalMS)
	}
	// Start() takes an immediate sample, so one reading exists.
	if len(v.Samples) < 1 || v.Samples[0].HeapBytes <= 0 || v.Samples[0].Goroutines <= 0 {
		t.Fatalf("no usable runtime sample: %+v", v.Samples)
	}
	// The same sampler feeds the always-on runtime gauges.
	if got := metricValue(t, ts, "layoutd_runtime_goroutines"); got <= 0 {
		t.Fatalf("layoutd_runtime_goroutines = %v, want > 0", got)
	}
	if got := metricValue(t, ts, "layoutd_runtime_heap_bytes"); got <= 0 {
		t.Fatalf("layoutd_runtime_heap_bytes = %v, want > 0", got)
	}
}

// ---- metrics federation ----

func fetchFederation(t *testing.T, url string) ([]byte, *obs.Exposition) {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster/metrics = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("federation Content-Type = %q", ct)
	}
	exp, err := obs.LintPrometheusText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("federated exposition failed lint: %v\n%s", err, raw)
	}
	return raw, exp
}

// TestSingleNodeClusterMetrics: the endpoint works without a cluster —
// one node, node label "self", lint-clean.
func TestSingleNodeClusterMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	_, exp := fetchFederation(t, ts.URL)
	if len(exp.Series) == 0 {
		t.Fatal("empty federation")
	}
	for _, sr := range exp.Series {
		if sr.Labels["node"] != "self" {
			t.Fatalf("series %s labels = %v, want node=self", sr.Name, sr.Labels)
		}
	}
}

// TestClusterMetricsFederation: scraping any node covers every live
// peer, every series carries that peer's node label, and the merged
// exposition is lint-clean (one HELP/TYPE per family, no duplicate
// series, cumulative histograms) — the satellite acceptance check.
func TestClusterMetricsFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node cluster e2e")
	}
	nodes := newTestCluster3(t)
	raw, exp := fetchFederation(t, nodes[0].ts.URL)

	seen := map[string]bool{}
	for _, sr := range exp.Series {
		node := sr.Labels["node"]
		if node == "" {
			t.Fatalf("federated series %s{%v} missing node label", sr.Name, sr.Labels)
		}
		seen[node] = true
	}
	for _, n := range nodes {
		if !seen[n.id] {
			t.Fatalf("federation missing node %s; saw %v\n%s", n.id, seen, raw)
		}
	}
	// Histograms survive relabeling: per-node bucket groups exist for a
	// histogram family every node exposes.
	buckets := 0
	for _, sr := range exp.Series {
		if sr.Name == "layoutd_queue_wait_seconds_bucket" {
			buckets++
		}
	}
	if buckets == 0 {
		t.Fatal("no federated histogram buckets")
	}
	// The coverage header names all three nodes live.
	if !bytes.Contains(raw, []byte("# federation: layoutd cluster metrics, 3/3 nodes")) {
		t.Fatalf("federation header wrong:\n%s", raw[:120])
	}
}

// ---- cross-node trace assembly ----

// TestClusterTraceAssembly is the tentpole acceptance path: a job
// submitted through a NON-owner with an injected W3C traceparent ends
// up with (a) the caller's 32-hex trace ID on the owner's job, and
// (b) a merged trace document on the submit node showing the owner's
// pipeline spans AND the submit node's peer.forward span, each
// attributed to its node, on one re-based time axis.
func TestClusterTraceAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node cluster e2e")
	}
	nodes := newTestCluster3(t)
	rawTrace, _ := recordedTrace(t)

	routingKey := sha256Hex(rawTrace)
	ownerID := nodes[0].cl.Owner(routingKey).ID
	var submitNode *clusterNode
	for _, n := range nodes {
		if n.id != ownerID {
			submitNode = n
			break
		}
	}

	const callerTID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost,
		submitNode.ts.URL+"/v1/jobs?prog="+testProg+"&opt=func-affinity", bytes.NewReader(rawTrace))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, "00-"+callerTID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit via non-owner = %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.ID, ownerID+".") {
		t.Fatalf("job %q not owned by %q", v.ID, ownerID)
	}
	// The owner's job adopted the caller's trace ID across the hop.
	if v.TraceID != callerTID {
		t.Fatalf("job traceId = %q, want the injected %q", v.TraceID, callerTID)
	}
	done := waitJob(t, submitNode.ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job did not complete: %+v", done)
	}

	// Fetch the trace through the submit node: assembled, not proxied.
	tresp, err := http.Get(submitNode.ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traw, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", tresp.StatusCode, traw)
	}
	if got := tresp.Header.Get(headerForwardedTo); got != ownerID {
		t.Fatalf("%s = %q, want %q", headerForwardedTo, got, ownerID)
	}
	var tv traceView
	if err := json.Unmarshal(traw, &tv); err != nil {
		t.Fatal(err)
	}
	if tv.TraceID != callerTID {
		t.Fatalf("trace doc trace_id = %q, want %q", tv.TraceID, callerTID)
	}
	wantNodes := []string{ownerID, submitNode.id}
	if wantNodes[0] > wantNodes[1] {
		wantNodes[0], wantNodes[1] = wantNodes[1], wantNodes[0]
	}
	if len(tv.Nodes) != 2 || tv.Nodes[0] != wantNodes[0] || tv.Nodes[1] != wantNodes[1] {
		t.Fatalf("trace doc nodes = %v, want %v", tv.Nodes, wantNodes)
	}
	var sawForward, sawOwnerSpan bool
	for _, sp := range tv.Spans {
		if sp.StartMS < 0 {
			t.Fatalf("span %s starts before the merged epoch: %+v", sp.Name, sp)
		}
		if sp.Name == "peer.forward" && sp.Node == submitNode.id {
			sawForward = true
		}
		if sp.Node == ownerID && sp.Name == "optimize" {
			sawOwnerSpan = true
		}
	}
	if !sawForward {
		t.Fatalf("merged trace missing the submit node's peer.forward span: %s", traw)
	}
	if !sawOwnerSpan {
		t.Fatalf("merged trace missing the owner's optimize span: %s", traw)
	}

	// The owner itself serves its own (single-node-lane) view.
	oresp, err := http.Get(nodeByID(nodes, ownerID).ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var otv traceView
	err = json.NewDecoder(oresp.Body).Decode(&otv)
	oresp.Body.Close()
	if err != nil || oresp.StatusCode != http.StatusOK {
		t.Fatalf("owner trace fetch: %d %v", oresp.StatusCode, err)
	}
	if len(otv.Nodes) != 1 || otv.Nodes[0] != ownerID {
		t.Fatalf("owner's own trace nodes = %v", otv.Nodes)
	}
}
