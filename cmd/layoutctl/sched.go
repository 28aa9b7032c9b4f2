package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"codelayout/internal/textplot"
)

// parseCacheGeometry turns "sizeBytes/assoc/lineBytes" (e.g. "32768/4/64")
// into the server's cache-config JSON object; "" means server default.
func parseCacheGeometry(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return nil, fmt.Errorf("cache geometry %q: want sizeBytes/assoc/lineBytes", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cache geometry %q: bad field %q", s, p)
		}
		vals[i] = v
	}
	return map[string]int{"SizeBytes": vals[0], "Assoc": vals[1], "LineBytes": vals[2]}, nil
}

// postJob POSTs a JSON body to path and waits for the resulting async
// job, returning the final job document. Cache hits come back already
// done; otherwise the job is polled like -submit -wait.
func postJob(r *retrier, base, path string, body any, timeout time.Duration) (jobView, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return jobView{}, nil, err
	}
	resp, err := r.Do("POST "+path, func() (*http.Response, error) {
		return http.Post(base+path, "application/json", bytes.NewReader(data))
	})
	if err != nil {
		return jobView{}, nil, err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return jobView{}, nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return jobView{}, nil, fmt.Errorf("POST %s: bad response %q: %w", path, raw, err)
	}
	deadline := time.Now().Add(timeout)
	for {
		switch v.Status {
		case "done":
			return v, raw, nil
		case "failed":
			return v, raw, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
		case "canceled":
			return v, raw, fmt.Errorf("job %s was canceled", v.ID)
		}
		if !time.Now().Before(deadline) {
			return v, raw, fmt.Errorf("job %s still not finished after %s", v.ID, timeout)
		}
		time.Sleep(200 * time.Millisecond)
		v, raw, err = getJob(r, base, v.ID)
		if err != nil {
			return jobView{}, nil, err
		}
	}
}

// pairSide mirrors the server's PairSide wire format, loosely.
type pairSide struct {
	Digest        string  `json:"digest"`
	Prog          string  `json:"prog"`
	Optimizer     string  `json:"optimizer"`
	MissSolo      float64 `json:"missSolo"`
	MissCorun     float64 `json:"missCorun"`
	Contention    float64 `json:"contention"`
	Defensiveness float64 `json:"defensiveness"`
	Politeness    float64 `json:"politeness"`
	PredMissRatio float64 `json:"predMissRatio"`
	PredMisses    float64 `json:"predMisses"`
}

// corunView mirrors the server's CorunDoc wire format, loosely.
type corunView struct {
	Digest   string   `json:"digest"`
	A        pairSide `json:"a"`
	B        pairSide `json:"b"`
	PairCost float64  `json:"pairCost"`
}

// doCorun posts a /v1/corun pair analysis, waits for it, and writes the
// pair document to w: raw JSON with jsonOut, else a side-by-side table.
func doCorun(w io.Writer, r *retrier, base, pair, cacheGeom string, timeout time.Duration, jsonOut bool) error {
	digests := splitDigests(pair)
	if len(digests) != 2 {
		return usageError("-corun wants exactly two comma-separated layout digests")
	}
	cache, err := parseCacheGeometry(cacheGeom)
	if err != nil {
		return err
	}
	body := map[string]any{"a": digests[0], "b": digests[1]}
	if cache != nil {
		body["cache"] = cache
	}
	v, raw, err := postJob(r, base, "/v1/corun", body, timeout)
	if err != nil {
		return err
	}
	if jsonOut {
		_, err := w.Write(append(raw, '\n'))
		return err
	}
	var wrap struct {
		Corun corunView `json:"corun"`
	}
	if err := json.Unmarshal(raw, &wrap); err != nil {
		return fmt.Errorf("corun: bad response %q: %w", raw, err)
	}
	doc := wrap.Corun
	fmt.Fprintf(w, "pair %s cached=%v\n\n", doc.Digest, v.Cached)
	const row = "%-14s %12s %12s\n"
	label := func(s pairSide) string { return s.Prog + "/" + s.Optimizer }
	fmt.Fprintf(w, row, "", label(doc.A), label(doc.B))
	pct := func(f float64) string { return fmt.Sprintf("%.4f%%", f*100) }
	fmt.Fprintf(w, row, "miss solo", pct(doc.A.MissSolo), pct(doc.B.MissSolo))
	fmt.Fprintf(w, row, "miss corun", pct(doc.A.MissCorun), pct(doc.B.MissCorun))
	fmt.Fprintf(w, row, "contention", pct(doc.A.Contention), pct(doc.B.Contention))
	fmt.Fprintf(w, row, "defensiveness", pct(doc.A.Defensiveness), pct(doc.B.Defensiveness))
	fmt.Fprintf(w, row, "politeness", pct(doc.A.Politeness), pct(doc.B.Politeness))
	fmt.Fprintf(w, row, "pred misses",
		fmt.Sprintf("%.0f", doc.A.PredMisses), fmt.Sprintf("%.0f", doc.B.PredMisses))
	_, err = fmt.Fprintf(w, "\npair cost (Eq-1 predicted co-run misses): %.0f\n", doc.PairCost)
	return err
}

// scheduleView mirrors the server's ScheduleDoc wire format, loosely.
type scheduleView struct {
	Digest    string      `json:"digest"`
	Labels    []string    `json:"labels"`
	Matrix    [][]float64 `json:"matrix"`
	Placement struct {
		Domains [][]int `json:"domains"`
		Cost    float64 `json:"cost"`
		Exact   bool    `json:"exact"`
	} `json:"placement"`
	WorstCost     float64 `json:"worstCost"`
	WorstKnown    bool    `json:"worstKnown"`
	PairsComposed int     `json:"pairsComposed"`
	PairsCached   int     `json:"pairsCached"`
}

// doSchedule posts a /v1/schedule placement, waits for it, and writes
// the schedule document to w: raw JSON with jsonOut, else the
// interference matrix and the placement by domain.
func doSchedule(w io.Writer, r *retrier, base, list string, domains, slots int, cacheGeom string, timeout time.Duration, jsonOut bool) error {
	digests := splitDigests(list)
	if len(digests) < 2 {
		return usageError("-schedule wants at least two comma-separated layout digests")
	}
	if domains <= 0 || slots <= 0 {
		return usageError("-schedule requires -domains and -slots")
	}
	cache, err := parseCacheGeometry(cacheGeom)
	if err != nil {
		return err
	}
	body := map[string]any{
		"digests":  digests,
		"topology": map[string]int{"domains": domains, "slotsPerDomain": slots},
	}
	if cache != nil {
		body["cache"] = cache
	}
	v, raw, err := postJob(r, base, "/v1/schedule", body, timeout)
	if err != nil {
		return err
	}
	if jsonOut {
		_, err := w.Write(append(raw, '\n'))
		return err
	}
	var wrap struct {
		Schedule scheduleView `json:"schedule"`
	}
	if err := json.Unmarshal(raw, &wrap); err != nil {
		return fmt.Errorf("schedule: bad response %q: %w", raw, err)
	}
	doc := wrap.Schedule
	fmt.Fprintf(w, "schedule %s cached=%v (%d pairs composed, %d from cache)\n\n",
		doc.Digest, v.Cached, doc.PairsComposed, doc.PairsCached)
	m := textplot.Matrix{
		Title:  "pairwise interference (Eq-1 predicted co-run misses)",
		Labels: shortLabels(doc.Labels),
		Cells:  doc.Matrix,
		Format: "%.0f",
	}
	io.WriteString(w, m.String())
	mode := "heuristic"
	if doc.Placement.Exact {
		mode = "exact"
	}
	fmt.Fprintf(w, "\nplacement (%s, total cost %.0f):\n", mode, doc.Placement.Cost)
	for i, dom := range doc.Placement.Domains {
		names := make([]string, len(dom))
		for k, idx := range dom {
			if idx < 0 || idx >= len(doc.Labels) {
				return fmt.Errorf("schedule %s: placement names program #%d of %d", doc.Digest, idx, len(doc.Labels))
			}
			names[k] = fmt.Sprintf("#%d %s", idx, doc.Labels[idx])
		}
		fmt.Fprintf(w, "  domain %d: %s\n", i, strings.Join(names, ", "))
	}
	if doc.WorstKnown && doc.WorstCost > 0 {
		fmt.Fprintf(w, "worst-case pairing cost %.0f; placement saves %.1f%%\n",
			doc.WorstCost, 100*(doc.WorstCost-doc.Placement.Cost)/doc.WorstCost)
	}
	return nil
}

// splitDigests splits a comma-separated digest list, trimming blanks.
func splitDigests(s string) []string {
	var out []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			out = append(out, d)
		}
	}
	return out
}

// shortLabels truncates labels for matrix column headers.
func shortLabels(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		if len(l) > 16 {
			l = l[:16]
		}
		out[i] = l
	}
	return out
}

// doPairDoc fetches a cached pair document by digest.
func doPairDoc(r *retrier, base, digest string) error {
	return printGET(r, base+"/v1/corun/"+url.PathEscape(digest))
}
