package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codelayout/internal/schedule"
	"codelayout/internal/server"
)

// jobView mirrors the job JSON the server returns from POST /v1/jobs,
// /v1/corun, /v1/schedule and GET /v1/jobs/{id}.
type jobView struct {
	ID       string              `json:"id"`
	Status   string              `json:"status"`
	Cached   bool                `json:"cached"`
	Error    string              `json:"error"`
	Result   *server.Result      `json:"result"`
	Corun    *server.CorunDoc    `json:"corun"`
	Schedule *server.ScheduleDoc `json:"schedule"`
}

// opResult is what one op produced, with its timing.
type opResult struct {
	op *op
	// start is when the client took the op; sent is when the request
	// actually left; end is when the client held the result. All are
	// offsets from the window start.
	start, sent, end time.Duration
	err              error
	cached           bool
	// forwarded: a cluster op sent to a node that does not own it; the
	// owner is known from the owner-prefixed job ID.
	forwarded bool
	polls     int
	// upload is the submit request's round trip; await is the time from
	// its response to the poll that saw the job finish.
	upload, await time.Duration
	result        *server.Result
	corun         *server.CorunDoc
	sched         *server.ScheduleDoc
}

func (r *opResult) latency() time.Duration { return r.end - r.start }

// client executes ops over the public HTTP API.
type client struct {
	hc    *http.Client
	urls  []string          // node base URLs, by node index
	ids   map[string]string // node ID -> base URL (cluster polls re-base onto the owner)
	plan  *plan
	spans *spanLog // nil when untraced
	epoch time.Time

	// corpus holds each corpus entry's result, and digests its result
	// digest, learned when set-up ingests the corpus.
	corpus  []*server.Result
	digests []string
}

func newClient(f *fleet, p *plan) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	c := &client{hc: &http.Client{Transport: tr}, ids: f.urls(), plan: p}
	for _, nd := range f.nodes {
		c.urls = append(c.urls, nd.url)
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// since is an offset from the client's epoch (the window start).
func (c *client) since(t time.Time) time.Duration { return t.Sub(c.epoch) }

// Job status is polled on one fixed schedule: each poll waits a
// sixteenth of the time since the op was sent, and at least a
// millisecond. Every workload's median is then measured to within a
// sixteenth, finer than a tenth of it, and polls grow only with the log
// of an op's length.
const (
	pollFirst = time.Millisecond
	pollShare = 16
)

func pollAfter(elapsed time.Duration) time.Duration { return max(pollFirst, elapsed/pollShare) }

// exec runs one op to completion: the request, then polls on the fixed
// schedule until the job is done. Errors cover transport failures, any
// non-2xx status (429 included), and jobs ending failed or canceled.
func (c *client) exec(ctx context.Context, o *op, r *opResult) {
	var opSpan int
	if c.spans != nil {
		opSpan = c.spans.begin("op."+o.kind, o.id, 0)
	}
	base := c.urls[o.node]
	var (
		path, ctype string
		body        io.Reader
		size        int64
	)
	switch o.kind {
	case kindSubmit:
		q := url.Values{"prog": {o.prog}, "opt": {o.opt}}
		if o.prune > 0 {
			q.Set("prune", strconv.Itoa(o.prune))
		}
		in := &c.plan.inputs[c.plan.subject(o).input]
		path, ctype = "/v1/jobs?"+q.Encode(), "application/octet-stream"
		body, size = in.reader(), in.size
	case kindGet:
		path = "/v1/layouts/" + c.digests[o.entries[0]]
	case kindCorun:
		path, ctype = "/v1/corun", "application/json"
		body, size = jsonBody(map[string]string{"a": c.digests[o.entries[0]], "b": c.digests[o.entries[1]]})
	case kindSchedule:
		ds := make([]string, len(o.entries))
		for i, e := range o.entries {
			ds[i] = c.digests[e]
		}
		path, ctype = "/v1/schedule", "application/json"
		body, size = jsonBody(map[string]any{"digests": ds, "topology": schedule.Topology{Domains: 2, SlotsPerDomain: 2}})
	}
	r.sent = c.since(time.Now())
	v, err := c.do(ctx, opSpan, o.id, "http."+o.kind, base+path, ctype, body, size)
	r.upload = c.since(time.Now()) - r.sent
	if err == nil && len(c.urls) > 1 && v.ID != "" {
		// Cluster job IDs carry the owner's node ID; polls go straight
		// to the owner, as a cluster-aware client re-bases them.
		owner, _, _ := strings.Cut(v.ID, ".")
		r.forwarded = owner != "" && c.urls[o.node] != c.ids[owner]
		if u, ok := c.ids[owner]; ok {
			base = u
		}
	}
	if o.kind == kindGet && err == nil {
		r.result = v.Result
	}
	for err == nil && o.kind != kindGet && (v.Status == server.StatusQueued || v.Status == server.StatusRunning) {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		case <-time.After(pollAfter(c.since(time.Now()) - r.sent)):
		}
		r.polls++
		v, err = c.do(ctx, opSpan, o.id, "http.poll", base+"/v1/jobs/"+v.ID, "", nil, 0)
	}
	if err == nil && o.kind != kindGet {
		if v.Status != server.StatusDone {
			err = fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		} else {
			r.cached = v.Cached
			r.result, r.corun, r.sched = v.Result, v.Corun, v.Schedule
		}
	}
	r.end = c.since(time.Now())
	r.await = r.end - r.sent - r.upload
	r.err = err
	if c.spans != nil {
		c.spans.end(opSpan)
	}
}

// jsonBody encodes a small request document.
func jsonBody(v any) (io.Reader, int64) {
	data, _ := json.Marshal(v) // maps of strings and ints always marshal
	return bytes.NewReader(data), int64(len(data))
}

// do sends one request, a POST when body is set, and decodes the job
// view (or, for GET /v1/layouts, the bare result).
func (c *client) do(ctx context.Context, parent, opID int, name, u, ctype string, body io.Reader, size int64) (jobView, error) {
	if c.spans != nil {
		sp := c.spans.begin(name, opID, parent)
		defer c.spans.end(sp)
	}
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return jobView{}, err
	}
	if body != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, err
	}
	if resp.StatusCode/100 != 2 {
		return jobView{}, fmt.Errorf("%s %s: %s: %s", method, u, resp.Status, bytes.TrimSpace(data))
	}
	var v jobView
	if name == "http."+kindGet {
		v.Result = new(server.Result)
		err = json.Unmarshal(data, v.Result)
	} else {
		err = json.Unmarshal(data, &v)
	}
	if err != nil {
		return jobView{}, fmt.Errorf("%s %s: decoding: %w", method, u, err)
	}
	return v, nil
}

// runClosed drives ops with the given number of clients, each sending
// its next op only when the previous result is in hand, until the
// window closes. Ops in flight at the close finish (bounded by ctx). If
// the op list runs dry first, the window closes early: dry is when the
// first client found it empty, 0 otherwise.
func runClosed(ctx context.Context, epoch time.Time, window time.Duration, clients int, ops []op, exec func(context.Context, *op, *opResult)) (results []opResult, dry time.Duration, err error) {
	results = make([]opResult, len(ops))
	var next, dryAt atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(epoch) < window {
				k := int(next.Add(1)) - 1
				if k >= len(ops) {
					dryAt.CompareAndSwap(0, int64(time.Since(epoch)))
					return
				}
				r := &results[k]
				r.op = &ops[k]
				r.start = time.Since(epoch)
				exec(ctx, &ops[k], r)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(ops))
	return results[:n], time.Duration(dryAt.Load()), ctx.Err()
}
