// Command layoutctl is the client for layoutd: it submits recorded
// CLTR traces as optimization jobs, polls them, and fetches cached
// layouts by content address.
//
// Transient failures — connection errors, 429 (queue full), 503 — are
// retried with jittered exponential backoff, honoring the server's
// Retry-After header. Retrying a submission is safe by construction:
// jobs are content-addressed by sha256(trace, optimizer, params), so a
// resubmit either lands on the cached result or re-enqueues the same
// digest, never duplicates work that completed.
//
// Usage:
//
//	layoutctl -addr http://127.0.0.1:8080 -submit /tmp/s.trace -prog 458.sjeng -opt func-affinity -wait
//	layoutctl -addr http://127.0.0.1:8080 -upload /tmp/big.trace -prog 458.sjeng -opt func-affinity -chunk-size 4194304 -wait
//	layoutctl -addr http://127.0.0.1:8080 -upload /tmp/big.trace -upload-id a1b2c3d4e5f60718 ... # resume
//	layoutctl -addr http://127.0.0.1:8080 -job job-1
//	layoutctl -addr http://127.0.0.1:8080 -trace job-1            # ASCII span waterfall
//	layoutctl -addr http://127.0.0.1:8080 -trace job-1 -json      # raw span timeline
//	layoutctl -addr http://127.0.0.1:8080 -cancel job-2
//	layoutctl -addr http://127.0.0.1:8080 -layout <digest>
//	layoutctl -addr http://127.0.0.1:8080 -optimizers
//	layoutctl -addr http://127.0.0.1:8080 -corun <digestA>,<digestB>
//	layoutctl -addr http://127.0.0.1:8080 -pair <pairDigest>
//	layoutctl -addr http://127.0.0.1:8080 -schedule <d1>,<d2>,... -domains 2 -slots 2
//	layoutctl -addr http://127.0.0.1:8080 -health
//	layoutctl -cluster http://127.0.0.1:8080,http://127.0.0.1:8081 -layout <digest>
//
// With -cluster, the first endpoint whose /healthz answers is used as
// the base URL; any node of a layoutd cluster serves any request, so
// picking a live node is all the client-side routing needed.
//
// Exit codes: 0 on success, 1 when the server or the job fails (bad
// response, failed/canceled job, retry budget exhausted), 2 on usage
// errors (unknown flags, missing required flags).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/obs"
	"codelayout/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("layoutctl: ")
	addr := flag.String("addr", "http://127.0.0.1:8080", "layoutd base URL")
	submit := flag.String("submit", "", "path of a CLTR trace to submit as a job")
	upload := flag.String("upload", "", "path of a CLTR trace to send via resumable chunked upload, then submit")
	chunkSize := flag.Int64("chunk-size", 4<<20, "bytes per upload chunk (with -upload)")
	uploadID := flag.String("upload-id", "", "resume an existing upload session instead of creating one (with -upload)")
	prog := flag.String("prog", "", "suite program the trace was recorded from (with -submit)")
	opt := flag.String("opt", "", "optimizer name (with -submit; see -optimizers)")
	prune := flag.Int("prune", 0, "PruneTopN override, 0 = server default (with -submit)")
	wait := flag.Bool("wait", false, "poll the submitted job until it finishes")
	timeout := flag.Duration("timeout", 5*time.Minute, "bound on -wait polling")
	job := flag.String("job", "", "job ID to fetch")
	traceID := flag.String("trace", "", "job ID whose span timeline to fetch (ASCII waterfall; raw with -json)")
	cancelID := flag.String("cancel", "", "queued job ID to cancel")
	layoutDigest := flag.String("layout", "", "layout digest to fetch")
	optimizers := flag.Bool("optimizers", false, "list the server's optimizer registry")
	corunPair := flag.String("corun", "", "two comma-separated layout digests to co-run analyze")
	pairDigest := flag.String("pair", "", "pair-document digest to fetch (from a prior -corun)")
	scheduleList := flag.String("schedule", "", "comma-separated layout digests to place (with -domains and -slots)")
	domains := flag.Int("domains", 0, "shared-cache domains in the topology (with -schedule)")
	slots := flag.Int("slots", 0, "cores per shared-cache domain (with -schedule)")
	cacheGeom := flag.String("cache", "", "cache geometry sizeBytes/assoc/lineBytes, e.g. 32768/4/64 (with -corun/-schedule)")
	health := flag.Bool("health", false, "print the server's /healthz document (node identity, build, degraded reason); with -cluster, probe and tabulate every endpoint")
	top := flag.Bool("top", false, "fleet summary from /v1/cluster/metrics: per-node health, queue, inflight, replication lag, repairs")
	storeList := flag.Bool("store-list", false, "list the node's durable store contents (key, kind, size, last access)")
	storeKind := flag.String("store-kind", "", "restrict -store-list to one kind: result, trace, pair, or schedule")
	clusterList := flag.String("cluster", "", "comma-separated layoutd base URLs; the first live one overrides -addr")
	jsonOut := flag.Bool("json", false, "print raw JSON responses instead of human-readable output")
	retries := flag.Int("retries", 4, "retry budget for transient failures (connection errors, 429, 503)")
	retryBase := flag.Duration("retry-base", 500*time.Millisecond, "base of the jittered exponential retry backoff")
	usage := flag.Usage
	flag.Usage = func() {
		usage()
		fmt.Fprintln(flag.CommandLine.Output(), `
Exit codes:
  0  success
  1  server or job failure (bad response, failed/canceled job, retries exhausted)
  2  usage error (unknown flags, missing required flags)`)
	}
	flag.Parse()

	r := &retrier{Max: *retries, Base: *retryBase, Logf: log.Printf}
	base := strings.TrimRight(*addr, "/")
	if *health && *clusterList != "" {
		// Probe every configured endpoint, not just the first live one.
		if err := doClusterHealth(strings.Split(*clusterList, ","), *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *clusterList != "" {
		picked, err := pickEndpoint(strings.Split(*clusterList, ","))
		if err != nil {
			log.Fatal(err)
		}
		base = picked
	}
	var err error
	switch {
	case *health:
		err = doHealth(r, base, *jsonOut)
	case *top:
		err = doTop(r, base, *jsonOut)
	case *storeList:
		err = doStoreList(r, base, *storeKind, *jsonOut)
	case *submit != "":
		err = doSubmit(r, base, *submit, *prog, *opt, *prune, *wait, *timeout, *jsonOut)
	case *upload != "":
		err = doUpload(r, base, *upload, *prog, *opt, *prune, *chunkSize, *uploadID, *wait, *timeout, *jsonOut)
	case *job != "":
		err = printGET(r, base+"/v1/jobs/"+url.PathEscape(*job))
	case *traceID != "":
		err = doTrace(r, base, *traceID, *jsonOut)
	case *cancelID != "":
		err = doCancel(r, base, *cancelID)
	case *layoutDigest != "":
		err = printGET(r, base+"/v1/layouts/"+url.PathEscape(*layoutDigest))
	case *optimizers:
		err = printGET(r, base+"/v1/optimizers")
	case *corunPair != "":
		err = doCorun(os.Stdout, r, base, *corunPair, *cacheGeom, *timeout, *jsonOut)
	case *pairDigest != "":
		err = doPairDoc(r, base, *pairDigest)
	case *scheduleList != "":
		err = doSchedule(os.Stdout, r, base, *scheduleList, *domains, *slots, *cacheGeom, *timeout, *jsonOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
	var misuse usageError
	if errors.As(err, &misuse) {
		fmt.Fprintln(os.Stderr, "layoutctl:", misuse)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err) // exit code 1
	}
}

// usageError is a command-line misuse a command finds after flag
// parsing; main exits 2 on it, as on a flag error.
type usageError string

func (e usageError) Error() string { return string(e) }

// retrier is the shared retry/backoff engine (internal/cluster): the
// same semantics layoutd peers use for forwarding and replication.
// Transport errors and 429/503 responses are retried with jittered
// exponential backoff honoring Retry-After; content addressing makes
// every retried request idempotent.
type retrier = cluster.Retrier

// jobView mirrors the server's wire format, loosely (unknown fields are
// ignored, so the client tolerates additive server changes).
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Digest string          `json:"digest"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func doSubmit(r *retrier, base, path, prog, opt string, prune int, wait bool, timeout time.Duration, jsonOut bool) error {
	if prog == "" || opt == "" {
		fmt.Fprintln(os.Stderr, "layoutctl: -submit requires -prog and -opt")
		os.Exit(2)
	}
	q := url.Values{"prog": {prog}, "opt": {opt}}
	if prune > 0 {
		q.Set("prune", fmt.Sprint(prune))
	}
	// Each attempt re-opens the trace file: a retried POST needs the
	// body from byte zero, and content addressing makes the resubmit
	// idempotent on the server.
	resp, err := r.Do("submit", func() (*http.Response, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return http.Post(base+"/v1/jobs?"+q.Encode(), "application/octet-stream", f)
	})
	if err != nil {
		return err
	}
	return awaitSubmitted(r, base, resp, wait, timeout, jsonOut)
}

// awaitSubmitted handles a submission response — print the job, and
// with wait poll it to a terminal state. Shared by -submit and the
// finalize step of -upload.
func awaitSubmitted(r *retrier, base string, resp *http.Response, wait bool, timeout time.Duration, jsonOut bool) error {
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("submit: bad response %q: %w", body, err)
	}
	if jsonOut {
		if !wait || v.Status == "done" || v.Status == "failed" {
			os.Stdout.Write(append(body, '\n'))
			if v.Status == "failed" {
				return fmt.Errorf("job failed: %s", v.Error)
			}
			return nil
		}
	} else {
		fmt.Printf("job %s %s digest %s cached=%v\n", v.ID, v.Status, v.Digest, v.Cached)
		if !wait || v.Status == "done" || v.Status == "failed" {
			if v.Status == "done" {
				os.Stdout.Write(append(body, '\n'))
			}
			if v.Status == "failed" {
				return fmt.Errorf("job failed: %s", v.Error)
			}
			return nil
		}
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		got, raw, err := getJob(r, base, v.ID)
		if err != nil {
			return err
		}
		switch got.Status {
		case "done":
			os.Stdout.Write(append(raw, '\n'))
			return nil
		case "failed":
			if jsonOut {
				os.Stdout.Write(append(raw, '\n'))
			}
			return fmt.Errorf("job %s failed: %s", got.ID, got.Error)
		case "canceled":
			return fmt.Errorf("job %s was canceled", got.ID)
		}
	}
	return fmt.Errorf("job %s still not finished after %s", v.ID, timeout)
}

// uploadView mirrors the server's upload-session wire format.
type uploadView struct {
	ID     string `json:"id"`
	Offset int64  `json:"offset"`
}

// getUploadOffset asks the server for a session's durable offset — the
// resume point after a lost connection or a lost PATCH response.
func getUploadOffset(base, id string) (int64, error) {
	resp, err := http.Get(base + "/v1/uploads/" + url.PathEscape(id))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET upload %s: %s: %s", id, resp.Status, strings.TrimSpace(string(raw)))
	}
	var v uploadView
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, err
	}
	return v.Offset, nil
}

// doUpload sends the trace through the resumable chunked protocol:
// create (or resume) a session, PATCH -chunk-size slices at the offset
// the server reports, finalize into a job. A dropped connection or a
// lost response re-syncs from the server's durable offset — the 409
// path — so no byte is ever sent to the wrong position; if the retry
// budget runs out, the printed -upload-id resumes the session later.
func doUpload(r *retrier, base, path, prog, opt string, prune int, chunkSize int64, uploadID string, wait bool, timeout time.Duration, jsonOut bool) error {
	if prog == "" || opt == "" {
		fmt.Fprintln(os.Stderr, "layoutctl: -upload requires -prog and -opt")
		os.Exit(2)
	}
	if chunkSize <= 0 {
		fmt.Fprintln(os.Stderr, "layoutctl: -chunk-size must be positive")
		os.Exit(2)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()

	id := uploadID
	var off int64
	if id == "" {
		resp, err := r.Do("create upload", func() (*http.Response, error) {
			return http.Post(base+"/v1/uploads", "application/json", nil)
		})
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create upload: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		var v uploadView
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("create upload: bad response %q: %w", raw, err)
		}
		id = v.ID
		log.Printf("upload %s created (%d bytes; resume with -upload-id %s)", id, size, id)
	} else {
		off, err = getUploadOffset(base, id)
		if err != nil {
			return err
		}
		log.Printf("resuming upload %s at offset %d/%d", id, off, size)
	}

	buf := make([]byte, chunkSize)
	failures := 0
	for off < size {
		end := off + chunkSize
		if end > size {
			end = size
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return err
		}
		if _, err := io.ReadFull(f, buf[:end-off]); err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPatch,
			base+"/v1/uploads/"+url.PathEscape(id), bytes.NewReader(buf[:end-off]))
		if err != nil {
			return err
		}
		req.Header.Set("Upload-Offset", fmt.Sprint(off))
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			failures++
			if failures > r.Max {
				return fmt.Errorf("upload %s interrupted at offset %d after %d retries (resume with -upload-id %s): %w",
					id, off, r.Max, id, err)
			}
			log.Printf("chunk at %d failed (%v); re-syncing offset", off, err)
			time.Sleep(r.Base * time.Duration(failures))
			if cur, oerr := getUploadOffset(base, id); oerr == nil {
				off = cur
			}
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srvOff, offErr := strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64)
		switch resp.StatusCode {
		case http.StatusNoContent:
			if offErr != nil {
				return fmt.Errorf("PATCH at %d: bad Upload-Offset %q", off, resp.Header.Get("Upload-Offset"))
			}
			off = srvOff
			failures = 0
		case http.StatusConflict:
			// Out of sync (a lost response, a concurrent writer): the
			// durable offset rides the response; continue from it.
			failures++
			if failures > r.Max || offErr != nil {
				return fmt.Errorf("upload %s stuck at offset %d: %s: %s", id, off, resp.Status, strings.TrimSpace(string(raw)))
			}
			log.Printf("offset out of sync at %d; server reports %d", off, srvOff)
			off = srvOff
		default:
			return fmt.Errorf("PATCH at %d: %s: %s (resume with -upload-id %s)",
				off, resp.Status, strings.TrimSpace(string(raw)), id)
		}
	}

	q := url.Values{"prog": {prog}, "opt": {opt}}
	if prune > 0 {
		q.Set("prune", fmt.Sprint(prune))
	}
	resp, err := r.Do("finalize upload", func() (*http.Response, error) {
		return http.Post(base+"/v1/uploads/"+url.PathEscape(id)+"/finalize?"+q.Encode(), "application/json", nil)
	})
	if err != nil {
		return err
	}
	return awaitSubmitted(r, base, resp, wait, timeout, jsonOut)
}

// traceView mirrors the server's span-timeline wire format, loosely.
// Nodes and per-span node attribution appear on cluster-assembled
// documents (a job traced through a forwarding node).
type traceView struct {
	JobID   string   `json:"job_id"`
	TraceID string   `json:"trace_id"`
	Status  string   `json:"status"`
	Nodes   []string `json:"nodes"`
	Spans   []struct {
		Name    string  `json:"name"`
		Node    string  `json:"node"`
		StartMS float64 `json:"start_ms"`
		DurMS   float64 `json:"dur_ms"`
	} `json:"spans"`
	Dropped int64 `json:"dropped"`
}

func doTrace(r *retrier, base, id string, jsonOut bool) error {
	u := base + "/v1/jobs/" + url.PathEscape(id) + "/trace"
	resp, err := r.Do("GET "+u, func() (*http.Response, error) {
		return http.Get(u)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(raw)))
	}
	if jsonOut {
		os.Stdout.Write(raw)
		return nil
	}
	var tv traceView
	if err := json.Unmarshal(raw, &tv); err != nil {
		return fmt.Errorf("trace: bad response %q: %w", raw, err)
	}
	title := fmt.Sprintf("job %s (%s) trace %s — %d spans", tv.JobID, tv.Status, tv.TraceID, len(tv.Spans))
	if len(tv.Nodes) > 1 {
		title += fmt.Sprintf(" across %s", strings.Join(tv.Nodes, ", "))
	}
	w := textplot.Waterfall{Title: title, Format: "%.1fms"}
	// Multi-node documents get per-node lanes: each span's label is
	// prefixed with the node that recorded it.
	multiNode := len(tv.Nodes) > 1
	for _, sp := range tv.Spans {
		label := sp.Name
		if multiNode && sp.Node != "" {
			label = "[" + sp.Node + "] " + sp.Name
		}
		w.Add(label, sp.StartMS, sp.DurMS)
	}
	os.Stdout.WriteString(w.String())
	if tv.Dropped > 0 {
		fmt.Printf("(%d spans dropped by the per-job buffer bound)\n", tv.Dropped)
	}
	return nil
}

func doCancel(r *retrier, base, id string) error {
	resp, err := r.Do("cancel", func() (*http.Response, error) {
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+url.PathEscape(id), nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	// 200: a queued job was canceled; 202: a running corun/schedule job
	// is winding down and will land in "canceled".
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("cancel %s: %s: %s", id, resp.Status, strings.TrimSpace(string(raw)))
	}
	os.Stdout.Write(raw)
	return nil
}

func getJob(r *retrier, base, id string) (jobView, []byte, error) {
	resp, err := r.Do("poll "+id, func() (*http.Response, error) {
		return http.Get(base + "/v1/jobs/" + url.PathEscape(id))
	})
	if err != nil {
		return jobView{}, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return jobView{}, nil, fmt.Errorf("GET job %s: %s: %s", id, resp.Status, strings.TrimSpace(string(raw)))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return jobView{}, nil, err
	}
	return v, raw, nil
}

// healthView mirrors the server's /healthz wire format, loosely.
type healthView struct {
	Status   string `json:"status"`
	NodeID   string `json:"node_id"`
	Build    string `json:"build"`
	Degraded string `json:"degraded"`
}

// pickEndpoint probes each base URL's /healthz with a short timeout and
// returns the first that answers 200, preferring a non-degraded node
// when one exists. Forwarding is transparent server-side, so liveness
// is the only thing worth selecting on.
func pickEndpoint(endpoints []string) (string, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	firstLive := ""
	for _, ep := range endpoints {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep == "" {
			continue
		}
		resp, err := client.Get(ep + "/healthz")
		if err != nil {
			log.Printf("cluster endpoint %s unreachable: %v", ep, err)
			continue
		}
		var v healthView
		err = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			log.Printf("cluster endpoint %s unhealthy: %s", ep, resp.Status)
			continue
		}
		if v.Status == "ok" {
			return ep, nil
		}
		if firstLive == "" {
			firstLive = ep
		}
	}
	if firstLive != "" {
		return firstLive, nil
	}
	return "", fmt.Errorf("no live endpoint among %s", strings.Join(endpoints, ", "))
}

func doHealth(r *retrier, base string, jsonOut bool) error {
	u := base + "/healthz"
	resp, err := r.Do("GET "+u, func() (*http.Response, error) {
		return http.Get(u)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if jsonOut {
		os.Stdout.Write(append(raw, '\n'))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", u, resp.Status)
		}
		return nil
	}
	var v healthView
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("health: bad response %q: %w", raw, err)
	}
	fmt.Printf("status   %s\n", v.Status)
	if v.NodeID != "" {
		fmt.Printf("node_id  %s\n", v.NodeID)
	}
	if v.Build != "" {
		fmt.Printf("build    %s\n", v.Build)
	}
	if v.Degraded != "" {
		fmt.Printf("degraded %s\n", v.Degraded)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return nil
}

// clusterHealthRow is one endpoint's probe result for -health -cluster.
type clusterHealthRow struct {
	Endpoint  string `json:"endpoint"`
	NodeID    string `json:"node_id,omitempty"`
	Status    string `json:"status"`
	Degraded  string `json:"degraded,omitempty"`
	LatencyMS int64  `json:"latency_ms"`
}

// doClusterHealth probes every configured endpoint concurrently —
// unreachable ones included in the table, not skipped — so one command
// shows the whole fleet's health. Exit is nonzero only when no
// endpoint answered at all.
func doClusterHealth(endpoints []string, jsonOut bool) error {
	client := &http.Client{Timeout: 2 * time.Second}
	var eps []string
	for _, ep := range endpoints {
		if ep = strings.TrimRight(strings.TrimSpace(ep), "/"); ep != "" {
			eps = append(eps, ep)
		}
	}
	rows := make([]clusterHealthRow, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			row := clusterHealthRow{Endpoint: ep}
			start := time.Now()
			resp, err := client.Get(ep + "/healthz")
			row.LatencyMS = time.Since(start).Milliseconds()
			if err != nil {
				row.Status = "unreachable"
				row.Degraded = err.Error()
				rows[i] = row
				return
			}
			var v healthView
			derr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&v)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || derr != nil {
				row.Status = "unhealthy"
				row.Degraded = resp.Status
				rows[i] = row
				return
			}
			row.NodeID = v.NodeID
			row.Status = v.Status
			row.Degraded = v.Degraded
			rows[i] = row
		}(i, ep)
	}
	wg.Wait()
	live := 0
	for _, row := range rows {
		if row.Status == "ok" || row.Status == "degraded" {
			live++
		}
	}
	if jsonOut {
		raw, _ := json.MarshalIndent(map[string][]clusterHealthRow{"endpoints": rows}, "", "  ")
		os.Stdout.Write(append(raw, '\n'))
	} else {
		fmt.Printf("%-28s  %-8s  %-11s  %9s  %s\n", "ENDPOINT", "NODE", "STATUS", "LATENCY", "DEGRADED")
		for _, row := range rows {
			node := row.NodeID
			if node == "" {
				node = "-"
			}
			reason := row.Degraded
			if reason == "" {
				reason = "-"
			}
			fmt.Printf("%-28s  %-8s  %-11s  %7dms  %s\n", row.Endpoint, node, row.Status, row.LatencyMS, reason)
		}
		fmt.Printf("%d/%d endpoints live\n", live, len(rows))
	}
	if live == 0 {
		return fmt.Errorf("no live endpoint among %s", strings.Join(eps, ", "))
	}
	return nil
}

// doTop fetches the federated exposition at /v1/cluster/metrics, lints
// it (a lint failure is a hard error — the endpoint's contract is a
// clean exposition), and renders a per-node fleet summary.
func doTop(r *retrier, base string, jsonOut bool) error {
	u := base + "/v1/cluster/metrics"
	resp, err := r.Do("GET "+u, func() (*http.Response, error) {
		return http.Get(u)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(raw)))
	}
	exp, err := obs.LintPrometheusText(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("federated exposition failed lint: %w", err)
	}
	if jsonOut {
		os.Stdout.Write(raw)
		return nil
	}

	// value[node][metric] for plain per-node series; histogram sums and
	// counts are folded for the average-lag column.
	value := map[string]map[string]float64{}
	nodeSet := map[string]bool{}
	for _, sr := range exp.Series {
		node := sr.Labels["node"]
		if node == "" {
			continue
		}
		nodeSet[node] = true
		if value[node] == nil {
			value[node] = map[string]float64{}
		}
		value[node][sr.Name] += sr.Value
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	get := func(node, metric string) (float64, bool) {
		v, ok := value[node][metric]
		return v, ok
	}
	fmt.Printf("%-8s  %-8s  %5s  %7s  %12s  %9s  %9s  %8s  %6s  %10s\n",
		"NODE", "STORE", "QUEUE", "RUNNING", "INFLIGHT", "COMPLETED", "REPL-Q", "LAG-AVG", "REPAIR", "GOROUTINES")
	for _, n := range nodes {
		storeState := "-"
		if v, ok := get(n, "layoutd_store_state"); ok {
			if v >= 1 {
				storeState = "ok"
			} else {
				storeState = "degraded"
			}
		}
		lag := "-"
		if cnt, ok := get(n, "layoutd_replication_lag_seconds_count"); ok && cnt > 0 {
			sum, _ := get(n, "layoutd_replication_lag_seconds_sum")
			lag = fmt.Sprintf("%.1fms", sum/cnt*1000)
		}
		num := func(metric string) string {
			if v, ok := get(n, metric); ok {
				return strconv.FormatFloat(v, 'f', -1, 64)
			}
			return "-"
		}
		fmt.Printf("%-8s  %-8s  %5s  %7s  %12s  %9s  %9s  %8s  %6s  %10s\n",
			n, storeState,
			num("layoutd_queue_depth"),
			num("layoutd_jobs_running"),
			num("layoutd_inflight_bytes"),
			num("layoutd_jobs_completed_total"),
			num("layoutd_replication_queue_depth"),
			lag,
			num("layoutd_antientropy_repaired_total"),
			num("layoutd_runtime_goroutines"))
	}
	fmt.Printf("%d nodes, %d series, exposition lint-clean\n", len(nodes), len(exp.Series))
	return nil
}

// storeListView mirrors GET /v1/store.
type storeListView struct {
	Entries []struct {
		Key        string `json:"key"`
		Kind       string `json:"kind"`
		Size       int64  `json:"size"`
		LastAccess string `json:"last_access"`
	} `json:"entries"`
	Count int   `json:"count"`
	Bytes int64 `json:"bytes"`
}

func doStoreList(r *retrier, base, kind string, jsonOut bool) error {
	u := base + "/v1/store"
	if kind != "" {
		u += "?kind=" + url.QueryEscape(kind)
	}
	resp, err := r.Do("GET "+u, func() (*http.Response, error) {
		return http.Get(u)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(raw)))
	}
	if jsonOut {
		os.Stdout.Write(append(raw, '\n'))
		return nil
	}
	var v storeListView
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("store list: bad response %q: %w", raw, err)
	}
	for _, e := range v.Entries {
		fmt.Printf("%-64s  %-8s  %10d  %s\n", e.Key, e.Kind, e.Size, e.LastAccess)
	}
	fmt.Printf("%d blobs, %d bytes\n", v.Count, v.Bytes)
	return nil
}

func printGET(r *retrier, u string) error {
	resp, err := r.Do("GET "+u, func() (*http.Response, error) {
		return http.Get(u)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(raw)))
	}
	os.Stdout.Write(raw)
	return nil
}
