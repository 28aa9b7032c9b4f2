package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/footprint"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/schedule"
	"codelayout/internal/server"
	"codelayout/internal/store"
	"codelayout/internal/trace"
)

// layerMetric is one per-layer metric, with the layer it measures, the
// end-to-end metrics it should move, and the workload where it does its
// work (and where it should read about nothing). BENCHMARK.json's
// per_layer list is this table's name, unit and better columns.
type layerMetric struct {
	name, unit, better  string
	layer, moves, where string
}

// timedLayers are the replayed layer spans; each is reported per op and
// as a share of the mean op latency. core.* are the analysis kernels
// behind internal/core.
var timedLayers = []struct{ span, layer, moves, where string }{
	{"core.feed", "internal/core over internal/affinity, internal/trg", "throughput_ops_s, latency_p50_ms, latency_tail_ms", "analysis / ingest"},
	{"core.finish", "internal/core over internal/affinity, internal/trg", "throughput_ops_s, latency_p50_ms, latency_tail_ms", "analysis / ingest"},
	{"core.optimize", "internal/core (buffered path)", "throughput_ops_s, latency_p50_ms, latency_tail_ms", "analysis / ingest"},
	{"trace.decode", "internal/trace", "latency_p50_ms, throughput_ops_s", "ingest / analysis"},
	{"cachesim.replay", "internal/cachesim, internal/layout replayer", "latency_p50_ms, throughput_ops_s", "ingest / analysis"},
	{"layout.emit", "internal/layout (core.LayoutFromSequence)", "corun_p50_ms", "warm-mix / small everywhere"},
	{"cachesim.corun", "internal/cachesim", "corun_p50_ms, schedule_p50_ms", "warm-mix / absent"},
	{"footprint.curve", "internal/footprint", "corun_p50_ms, schedule_p50_ms", "warm-mix / absent"},
	{"schedule.solve", "internal/schedule", "schedule_p50_ms", "warm-mix / absent"},
	{"store.write", "internal/store", "cpu_ms_per_op, throughput_ops_s", "ingest / warm-mix"},
	{"store.read", "internal/store", "corun_p50_ms, schedule_p50_ms", "warm-mix / cold workloads"},
}

var layerTable = func() []layerMetric {
	var t []layerMetric
	for _, l := range timedLayers {
		t = append(t,
			layerMetric{l.span + ".ms_per_op", "ms", "lower", l.layer, l.moves, l.where},
			layerMetric{l.span + ".share", "ratio", "lower", l.layer, l.moves, l.where})
	}
	return append(t,
		layerMetric{"core.share", "ratio", "lower", "internal/core", "latency_p50_ms", "majority of analysis / under a third of ingest"},
		layerMetric{"core.feed.useful_ratio", "ratio", "higher", "internal/core via the streaming path in internal/server", "hit_p50_ms, cpu_ms_per_op", "warm-mix / 1.0 in the cold workloads"},
		layerMetric{"store.write.bytes_per_op", "bytes", "lower", "internal/store", "cpu_ms_per_op, throughput_ops_s", "ingest / warm-mix"},
		layerMetric{"queue.wait.mean_ms", "ms", "lower", "internal/parallel (/metrics)", "latency_tail_ms", "every workload alike (2 clients on 2 job slots) / none"},
		layerMetric{"pool.rejected", "count", "lower", "internal/parallel (/metrics)", "fail_ratio", "every workload alike (2 clients on 2 job slots) / none"},
		layerMetric{"http.upload_ms", "ms", "lower", "internal/server", "latency_p50_ms, hit_p50_ms", "warm-mix / analysis"},
		layerMetric{"http.await_ms", "ms", "lower", "internal/server", "latency_p50_ms", "analysis / warm-mix"},
		layerMetric{"serve.residual_ms", "ms", "lower", "internal/server", "latency_p50_ms, hit_p50_ms", "warm-mix / analysis"},
		layerMetric{"result_cache.hit_ratio", "ratio", "higher", "internal/server caches (/metrics)", "hit_p50_ms, heap_retained_mb", "warm-mix / 0 in the cold workloads"},
		layerMetric{"pair_cache.hit_ratio", "ratio", "higher", "internal/server caches (/metrics)", "corun_p50_ms, heap_retained_mb", "warm-mix / absent"},
		layerMetric{"peer.forward.ms", "ms", "lower", "internal/cluster", "latency_p50_ms", "ingest / absent"},
		layerMetric{"forward.share", "ratio", "lower", "internal/cluster", "latency_p50_ms, cpu_ms_per_op", "ingest / absent"},
		layerMetric{"replication.pushed_per_op", "count", "lower", "internal/cluster (/metrics)", "cpu_ms_per_op", "ingest / absent"},
		layerMetric{"replication.dropped", "count", "lower", "internal/cluster (/metrics)", "fail_ratio", "ingest / absent"},
		layerMetric{"peer.forward_errors", "count", "lower", "internal/cluster (/metrics)", "fail_ratio", "ingest / absent"},
		layerMetric{"hit_p50_ms", "ms", "lower", "by-kind median: resubmits served from the cache", "latency_p50_ms", "warm-mix / absent"},
		layerMetric{"corun_p50_ms", "ms", "lower", "by-kind median: POST /v1/corun", "latency_p50_ms", "warm-mix / absent"},
		layerMetric{"schedule_p50_ms", "ms", "lower", "by-kind median: POST /v1/schedule", "latency_p50_ms", "warm-mix / absent"},
		layerMetric{"tracing.overhead_ms_per_op", "ms", "lower", "the benchmark's span recorder", "latency_p50_ms", "all"},
	)
}()

// layerResult is the traced run's output.
type layerResult struct {
	metrics map[string]float64
	text    string
	// err is set when the layer accounting does not add up: a residual
	// below zero by more than the run's own spread.
	err error
}

// replayer re-executes each op's input through the layers' public
// functions, one span per call, parented to the op's span.
type replayer struct {
	ctx   context.Context
	p     *plan
	c     *client
	spans *spanLog
	st    *store.Store
	arena *core.Arena

	op, parent int
	wBytes     int64
	useful     time.Duration // feed time on ops that produced a new result
	wasted     time.Duration

	// mem models the server's in-memory trace tier (an LRU of
	// server.DefaultTraceCacheEntries decoded traces), so replayed store
	// reads happen where the server's do.
	mem   *list.List
	memIx map[string]*list.Element
	// decoded holds every corpus trace, decoded untimed.
	decoded map[int]*trace.Trace
}

// timed runs fn as one span named name.
func (rp *replayer) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	rp.spans.record(name, rp.op, rp.parent, t0, time.Now())
	return err
}

// replayLayers replays every completed op of the traced window, serially
// so each span is a clean self time, then folds spans, /metrics deltas
// and op timings into the per-layer metrics.
func replayLayers(ctx context.Context, p *plan, c *client, w *windowRun, dir string) (*layerResult, error) {
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "replay"), Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rp := &replayer{ctx: ctx, p: p, c: c, spans: w.spans, st: st, arena: &core.Arena{},
		mem: list.New(), memIx: map[string]*list.Element{}, decoded: map[int]*trace.Trace{}}
	for i, e := range p.corpus {
		in := &p.inputs[e.input]
		tr, err := in.decode()
		if err != nil {
			return nil, err
		}
		rp.decoded[i] = tr
		st.Put("t-"+in.digest, in.bytes())
		if e.path == pathBuffered {
			rp.touch(in.digest)
		}
	}
	st.Flush()
	for i := range p.warmup {
		if o := &p.warmup[i]; o.path == pathBuffered && len(o.entries) > 0 {
			rp.touch(p.inputs[p.subject(o).input].digest)
		}
	}
	opSpans := w.spans.opSpans()
	seenPairs := map[[2]int]bool{}
	for i := range w.results {
		r := &w.results[i]
		if r.err != nil {
			continue
		}
		rp.op, rp.parent = r.op.id, opSpans[r.op.id]
		var err error
		switch r.op.kind {
		case kindSubmit:
			err = rp.submit(r)
		case kindCorun:
			err = rp.corun(r)
			seenPairs[pairKey(r.op.entries[0], r.op.entries[1])] = true
		case kindSchedule:
			err = rp.schedule(r, seenPairs)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying op %d (%s): %w", r.op.id, r.op.kind, err)
		}
	}
	return rp.fold(w), nil
}

func pairKey(a, b int) [2]int {
	if b < a {
		a, b = b, a
	}
	return [2]int{a, b}
}

// touch records a trace entering or refreshing the modeled memory tier;
// it reports whether the trace was already held.
func (rp *replayer) touch(digest string) bool {
	if e, ok := rp.memIx[digest]; ok {
		rp.mem.MoveToFront(e)
		return true
	}
	rp.memIx[digest] = rp.mem.PushFront(digest)
	for len(rp.memIx) > server.DefaultTraceCacheEntries {
		old := rp.mem.Back()
		rp.mem.Remove(old)
		delete(rp.memIx, old.Value.(string))
	}
	return false
}

// submit replays POST /v1/jobs: decode, then the feed or the buffered
// analysis, then the before/after replay and the store writes — or, for
// a cache hit, the work the server does before it finds the hit.
func (rp *replayer) submit(r *opResult) error {
	o := rp.p.subject(r.op)
	in := &rp.p.inputs[o.input]
	prog := rp.p.progs[o.prog]
	opt, err := core.OptimizerByName(o.opt)
	if err != nil {
		return err
	}
	opt.Workers, opt.PruneTopN, opt.Arena = 1, o.prune, rp.arena
	if o.path == pathFeed {
		var chunks [][]int32
		if err := rp.timed("trace.decode", func() error {
			chunks, err = decodeChunks(in.reader())
			return err
		}); err != nil {
			return err
		}
		var feed *core.Feed
		t0 := time.Now()
		if err := rp.timed("core.feed", func() error {
			if feed, err = opt.NewFeed(rp.ctx, prog); err != nil {
				return err
			}
			for _, ch := range chunks {
				if err := feed.Feed(rp.ctx, ch); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if r.cached {
			rp.wasted += time.Since(t0)
			feed.Abort()
			return nil
		}
		rp.useful += time.Since(t0)
		var l *layout.Layout
		if err := rp.timed("core.finish", func() error {
			l, _, err = feed.Finish(rp.ctx)
			return err
		}); err != nil {
			return err
		}
		if err := rp.timed("cachesim.replay", func() error { return replaySpool(in.reader(), prog, l) }); err != nil {
			return err
		}
		return rp.write(map[string][]byte{r.result.Digest: mustJSON(r.result), "t-" + in.digest: in.bytes()})
	}
	var tr *trace.Trace
	if err := rp.timed("trace.decode", func() error {
		tr, err = decodeWhole(in.reader())
		return err
	}); err != nil {
		return err
	}
	held := rp.touch(in.digest)
	if r.cached {
		if held {
			return nil
		}
		// The server re-encodes a trace that left its memory tier.
		return rp.write(map[string][]byte{"t-" + in.digest: encode(tr)})
	}
	var l *layout.Layout
	if err := rp.timed("core.optimize", func() error {
		l, _, err = opt.OptimizeCtx(rp.ctx, &core.Profile{Prog: prog, Blocks: tr})
		return err
	}); err != nil {
		return err
	}
	rp.timed("cachesim.replay", func() error {
		cfg := cachesim.L1IDefault
		cachesim.SimulateSoloCtx(rp.ctx, cfg, layout.NewReplayer(layout.Original(prog), tr, cfg.LineBytes, false))
		cachesim.SimulateSoloCtx(rp.ctx, cfg, layout.NewReplayer(l, tr, cfg.LineBytes, false))
		return nil
	})
	return rp.timed("store.write", func() error {
		rp.put(r.result.Digest, mustJSON(r.result))
		rp.put("t-"+in.digest, encode(tr))
		rp.st.Flush()
		return nil
	})
}

// write is one store.write span: Put each blob, then Flush.
func (rp *replayer) write(blobs map[string][]byte) error {
	return rp.timed("store.write", func() error {
		for _, k := range sortedKeys(blobs) {
			rp.put(k, blobs[k])
		}
		rp.st.Flush()
		return nil
	})
}

func (rp *replayer) put(key string, data []byte) {
	rp.wBytes += int64(len(data))
	// Replays may write a key twice; the suffix keeps each write real.
	rp.st.Put(fmt.Sprintf("%s-%d", key, rp.op), data)
}

// entry is one corpus result materialized for co-run analysis, with the
// per-entry memo the server keeps within a request.
type entry struct {
	res   *server.Result
	base  *layout.Layout
	opt   *layout.Layout
	tr    *trace.Trace
	curve *footprint.Curve
}

// resolve replays the server's resolveEntry: the trace from memory or
// the store, and the layout rebuilt from its recorded sequence.
func (rp *replayer) resolve(e int, res *server.Result) (*entry, error) {
	co := &rp.p.corpus[e]
	in := &rp.p.inputs[co.input]
	tr := rp.decoded[e]
	if !rp.touch(in.digest) {
		var data []byte
		if err := rp.timed("store.read", func() error {
			var ok bool
			if data, ok = rp.st.Get("t-" + in.digest); !ok {
				return fmt.Errorf("trace %s not in the replay store", in.digest)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := rp.timed("trace.decode", func() error {
			_, err := trace.ReadFrom(bytes.NewReader(data))
			return err
		}); err != nil {
			return nil, err
		}
	}
	prog := rp.p.progs[co.prog]
	var l *layout.Layout
	if err := rp.timed("layout.emit", func() error {
		var err error
		l, err = core.LayoutFromSequence(prog, res.Optimizer, res.Report.Sequence)
		return err
	}); err != nil {
		return nil, err
	}
	return &entry{res: res, base: layout.Original(prog), opt: l, tr: tr}, nil
}

// pair replays one pair analysis: the six co-run simulations, both
// footprint curves and Eq-1 predictions, the two solo miss ratios.
func (rp *replayer) pair(a, b *entry) {
	cfg := cachesim.L1IDefault
	rep := func(l *layout.Layout, t *trace.Trace, wrap bool) *layout.Replayer {
		return layout.NewReplayer(l, t, cfg.LineBytes, wrap)
	}
	rp.timed("cachesim.corun", func() error {
		cachesim.SimulateCorunBatch(cfg, []cachesim.CorunJob{
			{Primary: rep(a.base, a.tr, false), Peer: rep(b.base, b.tr, true)},
			{Primary: rep(a.opt, a.tr, false), Peer: rep(b.base, b.tr, true)},
			{Primary: rep(b.base, b.tr, false), Peer: rep(a.base, a.tr, true)},
			{Primary: rep(b.opt, b.tr, false), Peer: rep(a.base, a.tr, true)},
			{Primary: rep(a.opt, a.tr, false), Peer: rep(b.opt, b.tr, true)},
			{Primary: rep(b.opt, b.tr, false), Peer: rep(a.opt, a.tr, true)},
		}, 1)
		return nil
	})
	rp.timed("footprint.curve", func() error {
		for _, e := range []*entry{a, b} {
			if e.curve == nil {
				e.curve = footprint.NewCurveCtx(rp.ctx, lineTrace(e.opt, e.tr, cfg.LineBytes), nil, 1)
			}
		}
		capacity := float64(cfg.SizeBytes / cfg.LineBytes)
		footprint.CorunMissRatio(a.curve, b.curve, capacity)
		footprint.CorunMissRatio(b.curve, a.curve, capacity)
		return nil
	})
	rp.timed("cachesim.replay", func() error {
		for _, e := range []*entry{a, b} {
			cachesim.SimulateSoloCtx(rp.ctx, cfg, rep(e.opt, e.tr, false))
		}
		return nil
	})
}

// lineTrace is the optimized layout replayed to cache-line references,
// the footprint model's input, as the server builds it.
func lineTrace(l *layout.Layout, tr *trace.Trace, lineBytes int) []int32 {
	r := layout.NewReplayer(l, tr, lineBytes, false)
	var lines []int32
	buf := make([]int64, 0, 4096)
	for {
		out, blocks := r.AppendLines(buf[:0], 1024)
		if blocks == 0 {
			return lines
		}
		for _, ln := range out {
			lines = append(lines, int32(ln))
		}
		buf = out[:0]
	}
}

func (rp *replayer) resolveAll(ids []int) ([]*entry, error) {
	out := make([]*entry, len(ids))
	for i, e := range ids {
		var err error
		if out[i], err = rp.resolve(e, rp.c.corpus[e]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// corun replays POST /v1/corun: resolve both sides; on a fresh pair,
// the analysis and the pair document's store write.
func (rp *replayer) corun(r *opResult) error {
	es, err := rp.resolveAll(r.op.entries)
	if err != nil {
		return err
	}
	if r.cached {
		return nil
	}
	rp.pair(es[0], es[1])
	return rp.write(map[string][]byte{"p-" + r.corun.Digest: mustJSON(r.corun)})
}

// schedule replays POST /v1/schedule: resolve every digest, analyze the
// pairs the server computed (those no earlier op had asked for, up to
// its PairsComputed count), solve the placement, write the documents.
func (rp *replayer) schedule(r *opResult, seen map[[2]int]bool) error {
	ids := r.op.entries
	es, err := rp.resolveAll(ids)
	if err != nil {
		return err
	}
	todo := r.sched.PairsComputed
	for pass := 0; pass < 2 && todo > 0; pass++ {
		for i := 0; i < len(ids) && todo > 0; i++ {
			for j := i + 1; j < len(ids) && todo > 0; j++ {
				k := pairKey(ids[i], ids[j])
				if seen[k] == (pass == 0) {
					continue
				}
				rp.pair(es[i], es[j])
				seen[k] = true
				todo--
			}
		}
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			seen[pairKey(ids[i], ids[j])] = true
		}
	}
	if err := rp.timed("schedule.solve", func() error {
		if _, err := schedule.Solve(rp.ctx, r.sched.Matrix, r.sched.Topology); err != nil {
			return err
		}
		schedule.Worst(r.sched.Matrix, r.sched.Topology)
		return nil
	}); err != nil {
		return err
	}
	return rp.write(map[string][]byte{"s-" + r.sched.Digest: mustJSON(r.sched)})
}

// decodeChunks is the streamed path's decode: hash while decoding into
// fixed 8192-reference chunks, then drain trailing bytes.
func decodeChunks(data io.Reader) ([][]int32, error) {
	hr := trace.NewHashingReader(data)
	dec, err := trace.NewDecoder(hr)
	if err != nil {
		return nil, err
	}
	var chunks [][]int32
	for {
		buf := make([]int32, 8192)
		n, err := dec.NextChunk(buf)
		if n > 0 {
			chunks = append(chunks, buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	_, err = io.Copy(io.Discard, hr)
	hr.Sum()
	return chunks, err
}

// decodeWhole is the buffered path's decode.
func decodeWhole(data io.Reader) (*trace.Trace, error) {
	hr := trace.NewHashingReader(data)
	dec, err := trace.NewDecoder(hr)
	if err != nil {
		return nil, err
	}
	tr, err := dec.Decode()
	if err != nil {
		return nil, err
	}
	_, err = io.Copy(io.Discard, hr)
	hr.Sum()
	return tr, err
}

// replaySpool is the streamed path's before/after simulation: one more
// decode of the spooled bytes feeding two streaming solo simulations.
func replaySpool(data io.Reader, prog *ir.Program, l *layout.Layout) error {
	dec, err := trace.NewDecoder(data)
	if err != nil {
		return err
	}
	cfg := cachesim.L1IDefault
	orig := cachesim.NewSoloStream(cfg, layout.Original(prog))
	opt := cachesim.NewSoloStream(cfg, l)
	buf := make([]int32, 8192)
	for {
		n, err := dec.NextChunk(buf)
		if n > 0 {
			orig.Feed(buf[:n])
			opt.Feed(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	orig.Finish()
	opt.Finish()
	return nil
}

func encode(tr *trace.Trace) []byte {
	var buf bytes.Buffer
	tr.WriteTo(&buf) // writes to a bytes.Buffer cannot fail
	return buf.Bytes()
}

func mustJSON(v any) []byte {
	data, _ := json.Marshal(v) // server documents always marshal
	return data
}

// fold turns spans, op timings and /metrics deltas into the per-layer
// metrics and table.
func (rp *replayer) fold(w *windowRun) *layerResult {
	self := w.spans.selfTimes()
	var done []*opResult
	for i := range w.results {
		if w.results[i].err == nil {
			done = append(done, &w.results[i])
		}
	}
	n := float64(max(len(done), 1))
	lat := w.latencies()
	meanLat := mean(lat)
	m := map[string]float64{}
	var coreShare float64
	for _, l := range timedLayers {
		var total time.Duration
		for _, r := range done {
			total += self[r.op.id][l.span]
		}
		perOp := ms(total) / n
		m[l.span+".ms_per_op"] = perOp
		if meanLat > 0 {
			m[l.span+".share"] = perOp / meanLat
		}
		if strings.HasPrefix(l.span, "core.") {
			coreShare += m[l.span+".share"]
		}
	}
	m["core.share"] = coreShare
	m["core.feed.useful_ratio"] = 1
	if rp.useful+rp.wasted > 0 {
		m["core.feed.useful_ratio"] = float64(rp.useful) / float64(rp.useful+rp.wasted)
	}
	m["store.write.bytes_per_op"] = float64(rp.wBytes) / n
	md := w.metrics
	if c := md["layoutd_queue_wait_seconds_count"]; c > 0 {
		m["queue.wait.mean_ms"] = md["layoutd_queue_wait_seconds_sum"] / c * 1000
	}
	m["pool.rejected"] = md["layoutd_jobs_rejected_total"]
	var upload, await []float64
	submits, forwarded := 0, 0
	var fwd, direct []float64
	for _, r := range done {
		upload = append(upload, ms(r.upload))
		await = append(await, ms(r.await))
		if r.op.kind == kindSubmit {
			submits++
			if r.forwarded {
				forwarded++
				fwd = append(fwd, ms(r.latency()))
			} else {
				direct = append(direct, ms(r.latency()))
			}
		}
	}
	m["http.upload_ms"] = mean(upload)
	m["http.await_ms"] = mean(await)
	if submits > 0 {
		m["result_cache.hit_ratio"] = md["layoutd_cache_hits_total"] / float64(submits)
	}
	if d := md["layoutd_pair_cache_hits_total"] + md["layoutd_pair_cache_misses_total"]; d > 0 {
		m["pair_cache.hit_ratio"] = md["layoutd_pair_cache_hits_total"] / d
	}
	if w.spec.nodes > 1 && submits > 0 {
		m["forward.share"] = float64(forwarded) / float64(submits)
		if len(fwd) > 0 && len(direct) > 0 {
			m["peer.forward.ms"] = median(fwd) - median(direct)
		}
		m["replication.pushed_per_op"] = md["layoutd_replication_pushed_total"] / n
		m["replication.dropped"] = md["layoutd_replication_dropped_total"]
		m["peer.forward_errors"] = md["layoutd_peer_forward_errors_total"]
	}
	// By kind for the by-kind medians; by kind and path for the
	// residual, so each group's layers are the same calls.
	byKind := map[string][]*opResult{}
	byGroup := map[string][]*opResult{}
	for _, r := range done {
		k := kindOf(r)
		byKind[k] = append(byKind[k], r)
		if r.op.kind == kindSubmit {
			k += "/" + rp.p.subject(r.op).path
		}
		byGroup[k] = append(byGroup[k], r)
	}
	for _, k := range []string{"hit", kindCorun, kindSchedule} {
		var xs []float64
		for _, r := range byKind[k] {
			xs = append(xs, ms(r.latency()))
		}
		m[k+"_p50_ms"] = median(xs)
	}
	m["tracing.overhead_ms_per_op"] = ms(w.spans.cost) / n

	res := &layerResult{metrics: m}
	// The residual, per op kind and path: end-to-end p50 minus the sum of
	// the layers' p50s. Below zero by more than the group's own quartile
	// spread means the replay does work the server does not; groups too
	// small for a spread (fewer than minBeyond ops) are not judged.
	var overall float64
	var residLines []string
	for _, k := range sortedKeys(byGroup) {
		rs := byGroup[k]
		var e2e []float64
		layers := map[string][]float64{}
		for _, r := range rs {
			e2e = append(e2e, ms(r.latency()))
			for _, l := range timedLayers {
				layers[l.span] = append(layers[l.span], ms(self[r.op.id][l.span]))
			}
		}
		sum := 0.0
		for _, l := range timedLayers {
			sum += median(layers[l.span])
		}
		q1, q2, q3 := quartiles(e2e)
		resid := q2 - sum
		residLines = append(residLines, fmt.Sprintf("serve.residual_ms[%s] = %.3f (p50 %.3f - layers %.3f; quartile spread %.3f; n=%d)\n", k, resid, q2, sum, q3-q1, len(rs)))
		if len(rs) >= minBeyond && resid < -(q3-q1) {
			res.err = fmt.Errorf("serve.residual_ms[%s] = %.3f ms, below zero by more than the spread %.3f ms", k, resid, q3-q1)
		}
		overall += resid * float64(len(rs)) / n
	}
	m["serve.residual_ms"] = overall
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer table: workload %s, seed %d, %d ops, mean latency %.3f ms\n", w.spec.name, rp.p.seed, len(done), meanLat)
	fmt.Fprintf(&sb, "%-28s %12s %8s  %s\n", "metric", "value", "unit", "layer -> should move (does the work in / ~nothing in)")
	for _, l := range layerTable {
		fmt.Fprintf(&sb, "%-28s %12.4f %8s  %s -> %s (%s)\n", l.name, m[l.name], l.unit, l.layer, l.moves, l.where)
	}
	for _, l := range residLines {
		sb.WriteString(l)
	}
	res.text = sb.String()
	return res
}
