package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/schedule"
)

// ingestSuiteResults optimizes the recorded test trace under every
// optimizer and 429.mcf's training profile under three, through the
// daemon's own ingest, and returns the result digests in that order.
func ingestSuiteResults(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	var digests []string
	for _, sub := range []struct {
		prog string
		opts []string
	}{
		{testProg, core.OptimizerNames()},
		{"429.mcf", []string{"func-affinity", "bb-affinity", "bb-trg"}},
	} {
		raw := encodedProfile(t, sub.prog)
		for _, opt := range sub.opts {
			v, code := submitRaw(t, ts, raw, "prog="+sub.prog+"&opt="+opt)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit %s/%s: status %d", sub.prog, opt, code)
			}
			done := waitJob(t, ts, v.ID)
			if done.Status != StatusDone {
				t.Fatalf("optimize %s/%s: %+v", sub.prog, opt, done)
			}
			digests = append(digests, done.Digest)
		}
	}
	return digests
}

// refScheduleMatrix builds a schedule's matrix the way it was built
// before cells were composed: one computePair document per distinct
// digest pair, over entries shared by repeated digests. It returns the
// matrix and the documents by pair digest.
func refScheduleMatrix(t *testing.T, s *Server, cfg cachesim.Config, digests []string) ([][]float64, map[string]*CorunDoc) {
	t.Helper()
	ctx := context.Background()
	entries, _, err := s.resolveEntries(ctx, digests)
	if err != nil {
		t.Fatal(err)
	}
	n := len(digests)
	docs := make(map[string]*CorunDoc)
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := corunDigest(digests[i], digests[j], cfg)
			doc, ok := docs[k]
			if !ok {
				doc, err = s.computePair(ctx, cfg, entries[i], entries[j], 1)
				if err != nil {
					t.Fatal(err)
				}
				docs[k] = doc
			}
			matrix[i][j], matrix[j][i] = doc.PairCost, doc.PairCost
		}
	}
	return matrix, docs
}

// TestScheduleMatrixMatchesReference: over suite results the daemon
// ingested itself, a /v1/schedule job's matrix, placement and worst case
// equal those built from computePair documents, under the default
// geometry and two others. Each digest list repeats a digest (a
// self-pairing) and holds pairs whose documents /v1/corun cached first;
// the schedule reads those and composes the rest without writing a
// pair document.
func TestScheduleMatrixMatchesReference(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 2, QueueDepth: 16, OptWorkers: 2})
	digests := ingestSuiteResults(t, ts)
	last := len(digests) - 1
	cases := []struct {
		cfg  cachesim.Config
		list []int // indices into digests
		topo schedule.Topology
		// cached pairs are posted to /v1/corun before the schedule.
		cached [][2]int
	}{
		{cachesim.L1IDefault, []int{0, 1, 2, last - 2, last - 1, last, 0, last - 1},
			schedule.Topology{Domains: 4, SlotsPerDomain: 2}, [][2]int{{1, last - 2}, {last - 1, last - 1}}},
		{cachesim.Config{SizeBytes: 16 << 10, Assoc: 2, LineBytes: 32}, []int{3, 4, 5, last, 4},
			schedule.Topology{Domains: 3, SlotsPerDomain: 2}, [][2]int{{3, last}}},
		{cachesim.Config{SizeBytes: 64 << 10, Assoc: 8, LineBytes: 128}, []int{6, 7, last - 2, 6, 2},
			schedule.Topology{Domains: 2, SlotsPerDomain: 3}, [][2]int{{6, 6}}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		cfg := tc.cfg
		list := make([]string, len(tc.list))
		for i, x := range tc.list {
			list[i] = digests[x]
		}
		cachedKeys := make(map[string]bool)
		for _, p := range tc.cached {
			v, _, code := postJSON(t, ts, "/v1/corun", map[string]any{
				"a": digests[p[0]], "b": digests[p[1]], "cache": cfg})
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("cache %+v: corun submit status %d", cfg, code)
			}
			if done := waitJob(t, ts, v.ID); done.Status != StatusDone {
				t.Fatalf("cache %+v: corun: %+v", cfg, done)
			}
			cachedKeys[corunDigest(digests[p[0]], digests[p[1]], cfg)] = true
		}

		v, _, code := postJSON(t, ts, "/v1/schedule", map[string]any{
			"digests": list, "topology": tc.topo, "cache": cfg})
		if code != http.StatusAccepted {
			t.Fatalf("cache %+v: schedule submit status %d", cfg, code)
		}
		done := waitJob(t, ts, v.ID)
		if done.Status != StatusDone || done.Schedule == nil {
			t.Fatalf("cache %+v: schedule: %+v", cfg, done)
		}
		got := done.Schedule

		matrix, docs := refScheduleMatrix(t, s, cfg, list)
		placement, err := schedule.Solve(ctx, matrix, tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		worst, worstKnown := schedule.Worst(matrix, tc.topo)
		var worstCost float64
		if worstKnown {
			worstCost = worst.Cost
		}
		gotMatrix, _ := json.Marshal(got.Matrix)
		wantMatrix, _ := json.Marshal(matrix)
		if !bytes.Equal(gotMatrix, wantMatrix) {
			t.Fatalf("cache %+v: matrix\n got %s\nwant %s", cfg, gotMatrix, wantMatrix)
		}
		gotPlace, _ := json.Marshal(got.Placement)
		wantPlace, _ := json.Marshal(placement)
		if !bytes.Equal(gotPlace, wantPlace) {
			t.Errorf("cache %+v: placement\n got %s\nwant %s", cfg, gotPlace, wantPlace)
		}
		if got.WorstKnown != worstKnown || got.WorstCost != worstCost {
			t.Errorf("cache %+v: worst case %v (known %v), want %v (known %v)",
				cfg, got.WorstCost, got.WorstKnown, worstCost, worstKnown)
		}

		if got.PairsCached != len(cachedKeys) || got.PairsComposed != len(docs)-len(cachedKeys) || got.PairsComputed != 0 {
			t.Errorf("cache %+v: pairs composed/cached/simulated = %d/%d/%d, want %d/%d/0", cfg,
				got.PairsComposed, got.PairsCached, got.PairsComputed, len(docs)-len(cachedKeys), len(cachedKeys))
		}
		// A composed pair leaves no pair document behind.
		for k := range docs {
			if _, ok := s.pairs.get(ctx, k); ok != cachedKeys[k] {
				t.Errorf("cache %+v: pair %s in the pair cache = %v, want %v", cfg, k, ok, cachedKeys[k])
			}
		}
	}
}
