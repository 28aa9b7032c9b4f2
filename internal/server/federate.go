package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/obs"
)

// Metrics federation: GET /v1/cluster/metrics scrapes every live peer's
// /metrics concurrently, relabels each family with a node label, and
// serves one merged, lint-clean Prometheus exposition — so one scrape
// target (any node) covers the whole fleet. Unreachable peers degrade
// to a "# federation:" comment rather than failing the scrape.

// peerScrapeTimeout bounds one peer's /metrics fetch during federation.
const peerScrapeTimeout = 5 * time.Second

// maxScrapeBytes caps how much of a peer exposition federation reads.
const maxScrapeBytes = 8 << 20

// fedFamily accumulates one metric family's merged output: TYPE/HELP
// once (first exposition wins), then every node's samples in node
// order, each with the node label injected.
type fedFamily struct {
	name  string
	typ   string
	help  string
	lines []string
}

// handleClusterMetrics is GET /v1/cluster/metrics.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	type scrape struct {
		node string
		exp  *obs.Exposition
		err  error
		skip string // non-empty: peer not scraped (down), with reason
	}

	selfID := s.nodeID()
	if selfID == "" {
		selfID = "self"
	}

	var scrapes []scrape
	if cl := s.cluster; cl != nil {
		peers := cl.Peers() // sorted by ID, includes self
		scrapes = make([]scrape, len(peers))
		var wg sync.WaitGroup
		for i, p := range peers {
			if p.ID == cl.SelfID() {
				exp, err := s.selfExposition()
				scrapes[i] = scrape{node: p.ID, exp: exp, err: err}
				continue
			}
			if cl.State(p.ID) == cluster.StateDown {
				scrapes[i] = scrape{node: p.ID, skip: "down"}
				continue
			}
			wg.Add(1)
			go func(i int, p cluster.Peer) {
				defer wg.Done()
				exp, err := s.scrapePeer(r.Context(), p)
				scrapes[i] = scrape{node: p.ID, exp: exp, err: err}
			}(i, p)
		}
		wg.Wait()
	} else {
		exp, err := s.selfExposition()
		scrapes = []scrape{{node: selfID, exp: exp, err: err}}
	}

	famIndex := make(map[string]*fedFamily)
	var order []*fedFamily
	var notes []string
	covered := 0
	for _, sc := range scrapes {
		if sc.skip != "" {
			notes = append(notes, fmt.Sprintf("# federation: skipped node %s (%s)", sc.node, sc.skip))
			continue
		}
		if sc.err != nil {
			s.metrics.federationScrapeErrors.Inc()
			s.logger.Warn("federation scrape failed", "node", sc.node, "error", sc.err)
			notes = append(notes, fmt.Sprintf("# federation: scrape of node %s failed", sc.node))
			continue
		}
		covered++
		for _, sr := range sc.exp.Series {
			fam := sr.Name
			if _, ok := sc.exp.Types[fam]; !ok {
				if f := obs.FamilyOf(sr.Name); f != sr.Name {
					fam = f
				}
			}
			ff := famIndex[fam]
			if ff == nil {
				ff = &fedFamily{name: fam}
				famIndex[fam] = ff
				order = append(order, ff)
			}
			if ff.typ == "" {
				ff.typ = sc.exp.Types[fam]
			}
			if ff.help == "" {
				ff.help = sc.exp.Helps[fam]
			}
			ff.lines = append(ff.lines, federatedSampleLine(sc.node, sr))
		}
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "# federation: layoutd cluster metrics, %d/%d nodes\n", covered, len(scrapes))
	for _, n := range notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	for _, ff := range order {
		if ff.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", ff.name, ff.help)
		}
		if ff.typ != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", ff.name, ff.typ)
		}
		for _, line := range ff.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

// selfExposition renders this node's registry and re-parses it, so the
// local samples flow through the exact same relabeling path as peers'.
func (s *Server) selfExposition() (*obs.Exposition, error) {
	var buf bytes.Buffer
	if err := s.metrics.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParsePrometheusText(&buf)
}

// scrapePeer fetches and parses one peer's /metrics.
func (s *Server) scrapePeer(ctx context.Context, p cluster.Peer) (*obs.Exposition, error) {
	ctx, cancel := context.WithTimeout(ctx, peerScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return obs.ParsePrometheusText(io.LimitReader(resp.Body, maxScrapeBytes))
}

// federatedSampleLine renders one sample with the node label injected
// first and the original labels (sorted) preserved after it. A peer
// series that carries its own node label keeps that value under
// exported_node, Prometheus federation's convention for a scraped label
// that collides with a target label; when the peer also uses that name,
// the prefix repeats until the name is free.
func federatedSampleLine(node string, sr obs.Series) string {
	labels := sr.Labels
	if v, ok := labels["node"]; ok {
		labels = maps.Clone(labels)
		delete(labels, "node")
		name := "exported_node"
		for {
			if _, taken := labels[name]; !taken {
				break
			}
			name = "exported_" + name
		}
		labels[name] = v
	}
	var b strings.Builder
	b.WriteString(sr.Name)
	b.WriteString(`{node=`)
	b.WriteString(strconv.Quote(node))
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte(',')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[k]))
	}
	b.WriteString("} ")
	b.WriteString(formatPromValue(sr.Value))
	return b.String()
}

func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
