// Command layoutbench is the repository's benchmark. It starts layoutd
// nodes inside its own process, wired as cmd/layoutd wires them from its
// default flags, drives one named, seeded workload through the public
// HTTP API, checks every output against the serial buffered reference,
// and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash layoutbench/run.sh --workload analysis --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a traced run
// with the same seed, op order and concurrency, replays every op's input
// through the layers' public functions and reports per-layer metrics.
// Spans, per-layer tables and run records go to .bench_build/layoutbench.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"codelayout/internal/parallel"
)

const (
	// setups is how many times a run sets up, to report a median set-up
	// time; the last set-up serves the timed window.
	setups = 3
	// endOfRun bounds how long ops in flight at the window's close may
	// take before they count as failed.
	endOfRun = 30 * time.Second
	// hardDeadline is the command's own bound, well inside the 180 s a
	// run may take; teardown gets shutdownBound after it.
	hardDeadline  = 150 * time.Second
	shutdownBound = 10 * time.Second
)

// config is one run's settings.
type config struct {
	spec    workloadSpec
	seed    int64
	window  time.Duration
	traced  bool
	setups  int
	maxRefs int // tests truncate profiles to keep runs tiny
	outDir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layoutbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: analysis, ingest or warm-mix")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "layoutbench: want --workload analysis|ingest|warm-mix, --seconds > 0, --trace 0|1")
		return 2
	}
	cfg := config{spec: spec, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, setups: setups, outDir: filepath.Join(".bench_build", "layoutbench")}

	ctx, cancel := context.WithTimeout(context.Background(), hardDeadline)
	defer cancel()
	res, err := bench(ctx, cfg, stderr, func(*fleet) {})
	if err != nil {
		fmt.Fprintln(stderr, "layoutbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload end to end, calling started on each fleet it
// starts. Every exit path tears the nodes down in the same order and
// removes their temp dirs.
func bench(ctx context.Context, cfg config, log io.Writer, started func(*fleet)) (res *resultLine, err error) {
	var (
		p *plan
		f *fleet
		c *client
	)
	teardown := func() error {
		if f == nil {
			return nil
		}
		c.close()
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownBound)
		defer cancel()
		err := f.close(sctx)
		f = nil
		return err
	}
	defer func() {
		if terr := teardown(); terr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", terr)
		}
	}()

	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if err := teardown(); err != nil {
			return nil, fmt.Errorf("teardown after set-up %d: %w", i, err)
		}
		t0 := time.Now()
		if p, err = makePlan(ctx, cfg.spec, cfg.seed, cfg.window.Seconds(), cfg.maxRefs); err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		if f, err = startFleet(cfg.spec.nodes); err != nil {
			return nil, fmt.Errorf("starting nodes: %w", err)
		}
		started(f)
		c = newClient(f, p)
		if err := warm(ctx, c); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	w, err := measure(ctx, cfg, p, c)
	if err != nil {
		return nil, err
	}
	checks := runChecks(ctx, p, c, w.results)

	rec := record(cfg, p, w, setupS)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.spec.name, cfg.seed, boolInt(cfg.traced)))
	var layers map[string]float64
	if cfg.traced {
		lt, err := replayLayers(ctx, p, c, w, f.dir)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		layers = lt.metrics
		if err := w.spans.write(base + "-spans.json"); err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+"-layers.txt", []byte(lt.text), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprint(log, lt.text)
		if lt.err != nil {
			checks = append(checks, lt.err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("deadline: %w", err)
	}
	for _, e := range checks {
		fmt.Fprintln(log, "layoutbench: check failed:", e)
	}
	for _, r := range w.results {
		if r.err != nil {
			fmt.Fprintf(log, "layoutbench: op %d (%s) failed: %v\n", r.op.id, r.op.kind, r.err)
		}
	}
	rec["checks_failed"] = len(checks)
	recJSON, _ := json.Marshal(rec)
	fmt.Fprintln(log, string(recJSON))
	if err := os.WriteFile(base+"-record.json", recJSON, 0o644); err != nil {
		return nil, err
	}

	res = &resultLine{Correct: len(checks) == 0, Attempted: len(w.results), Metrics: map[string]metric{}}
	for _, r := range w.results {
		if r.err != nil {
			res.Failed++
		}
	}
	res.Failed += len(checks)
	if cfg.traced {
		for _, l := range layerTable {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
		}
	} else {
		for k, v := range w.endToEnd(setupS) {
			res.Metrics[k] = v
		}
	}
	return res, nil
}

// warm ingests the warm-mix corpus, then runs the untimed warm-up ops,
// each on nproc concurrent clients. Every op must succeed.
func warm(ctx context.Context, c *client) error {
	p := c.plan
	c.epoch = time.Now()
	corpus := make([]opResult, len(p.corpus))
	if err := parallel.ForEachCtx(ctx, 0, len(p.corpus), func(ctx context.Context, i int) error {
		c.exec(ctx, &p.corpus[i], &corpus[i])
		if corpus[i].err != nil {
			return fmt.Errorf("corpus entry %d: %w", i, corpus[i].err)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, r := range corpus {
		c.corpus = append(c.corpus, r.result)
		c.digests = append(c.digests, r.result.Digest)
	}
	return parallel.ForEachCtx(ctx, 0, len(p.warmup), func(ctx context.Context, i int) error {
		var r opResult
		c.exec(ctx, &p.warmup[i], &r)
		if r.err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, r.err)
		}
		return nil
	})
}

// windowRun is what the timed window measured.
type windowRun struct {
	spec     workloadSpec
	window   time.Duration
	results  []opResult
	cpu      time.Duration      // process CPU from window start to the last op's end
	heap     []float64          // live-heap samples over the window, bytes
	retained float64            // live heap once the window's work is done, bytes
	metrics  map[string]float64 // /metrics deltas over the window, summed over nodes
	spans    *spanLog
}

// measure runs the timed window with nproc closed-loop clients.
func measure(ctx context.Context, cfg config, p *plan, c *client) (*windowRun, error) {
	w := &windowRun{spec: cfg.spec, window: cfg.window}
	before, err := scrape(ctx, c.hc, c.urls)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heap := startHeapSampler(20 * time.Millisecond)
	cpu0 := cpuTime()
	epoch := time.Now()
	c.epoch = epoch
	if cfg.traced {
		w.spans = newSpanLog(epoch)
		c.spans = w.spans
	}
	rctx, cancel := context.WithTimeout(ctx, cfg.window+endOfRun)
	defer cancel()
	results, dry, err := runClosed(rctx, epoch, cfg.window, runtime.GOMAXPROCS(0), p.ops, c.exec)
	w.results = results
	if dry > 0 {
		// A box (or a build) fast enough to use up maxRate*seconds ops
		// measures a shorter window rather than failing.
		w.window = dry
	}
	w.cpu = cpuTime() - cpu0
	w.heap = heap.finish()
	c.spans = nil
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	after, err := scrape(ctx, c.hc, c.urls)
	if err != nil {
		return nil, err
	}
	w.metrics = delta(before, after)
	w.retained = retainedHeap()
	return w, nil
}

// latencies returns the latencies in ms of the successful ops.
func (w *windowRun) latencies() []float64 {
	var xs []float64
	for i := range w.results {
		if r := &w.results[i]; r.err == nil {
			xs = append(xs, ms(r.latency()))
		}
	}
	return xs
}

func (w *windowRun) completed() int {
	n := 0
	for _, r := range w.results {
		if r.err == nil {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics.
func (w *windowRun) endToEnd(setupS []float64) map[string]metric {
	// Ops straddling the window's close count by the share of their time
	// inside it, so the count does not jump by whole ops.
	inWindow := 0.0
	for _, r := range w.results {
		switch {
		case r.err != nil || r.sent >= w.window:
		case r.end <= w.window:
			inWindow++
		default:
			inWindow += float64(w.window-r.sent) / float64(r.end-r.sent)
		}
	}
	lat := w.latencies()
	tail := percentile(append([]float64(nil), lat...), w.spec.tailPct)
	return map[string]metric{
		"setup_s":          {median(append([]float64(nil), setupS...)), "s"},
		"throughput_ops_s": {inWindow / w.window.Seconds(), "1/s"},
		"latency_p50_ms":   {median(lat), "ms"},
		"latency_tail_ms":  {tail, "ms"},
		"cpu_ms_per_op":    {ms(w.cpu) / float64(max(w.completed(), 1)), "ms"},
		"heap_retained_mb": {w.retained / (1 << 20), "MB"},
	}
}

// runChecks compares a seeded sample of optimize results with the
// serial buffered reference and checks the co-run and schedule
// documents, after the window.
func runChecks(ctx context.Context, p *plan, c *client, results []opResult) []error {
	sample := checkSample(p, results)
	errs := checkOptimize(ctx, p, sample)
	var el errList
	parallel.ForEachCtx(ctx, 0, len(results), func(ctx context.Context, i int) error {
		r := &results[i]
		switch {
		case r.corun != nil:
			var back opResult
			swapped := op{id: r.op.id, kind: kindCorun, entries: []int{r.op.entries[1], r.op.entries[0]}}
			c.exec(ctx, &swapped, &back)
			if back.err != nil {
				el.add(fmt.Errorf("op %d: co-run (b,a): %w", r.op.id, back.err))
				return nil
			}
			el.add(checkCorunDoc(r.corun, back.corun))
		case r.sched != nil:
			el.add(checkScheduleDoc(r.sched, func(i, j int) (float64, error) {
				var pr opResult
				pair := op{id: r.op.id, kind: kindCorun, entries: []int{r.op.entries[i], r.op.entries[j]}}
				c.exec(ctx, &pair, &pr)
				if pr.err != nil {
					return 0, fmt.Errorf("op %d: pair (%d,%d): %w", r.op.id, i, j, pr.err)
				}
				return pr.corun.PairCost, nil
			}))
		}
		return nil
	})
	return append(errs, el.errs...)
}

// record is the run record: machine, settings and measured properties.
func record(cfg config, p *plan, w *windowRun, setupS []float64) map[string]any {
	lat := w.latencies()
	polls := 0
	var kinds = map[string][]float64{}
	var opt, hits, buffered, forwarded, over int
	for i := range w.results {
		r := &w.results[i]
		polls += r.polls
		if r.err == nil {
			kinds[kindOf(r)] = append(kinds[kindOf(r)], ms(r.latency()))
		}
		if r.op.kind != kindSubmit {
			continue
		}
		opt++
		if r.cached {
			hits++
		}
		if p.subject(r.op).path == pathBuffered {
			buffered++
		}
		if r.forwarded {
			forwarded++
		}
		if p.inputs[p.subject(r.op).input].overWindow() {
			over++
		}
	}
	share := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	byKind := map[string]any{}
	for k, xs := range kinds {
		byKind[k] = map[string]any{"p10_ms": percentile(xs, 10), "p50_ms": median(xs),
			"p90_ms": percentile(xs, 90), "n": len(xs)}
	}
	failed := 0
	for _, r := range w.results {
		if r.err != nil {
			failed++
		}
	}
	rec := map[string]any{
		"workload":           cfg.spec.name,
		"seed":               cfg.seed,
		"run_seconds":        cfg.window.Seconds(),
		"window_s":           w.window.Seconds(),
		"traced":             cfg.traced,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go_version":         runtime.Version(),
		"cpu_model":          cpuModel(),
		"commit":             commit(),
		"nodes":              cfg.spec.nodes,
		"clients":            runtime.GOMAXPROCS(0),
		"poll_schedule":      fmt.Sprintf("each poll after max(%v, 1/%d of the time since send)", pollFirst, pollShare),
		"polls_per_op":       share(polls, len(w.results)),
		"tail_pct":           cfg.spec.tailPct,
		"tail_samples":       len(lat),
		"tail_beyond":        beyond(len(lat), cfg.spec.tailPct),
		"tail_pct_supported": tailPercentile(len(lat)),
		"setup_s":            setupS,
		"attempted":          len(w.results),
		"fail_ratio":         share(failed, len(w.results)),
		"by_kind":            byKind,
		"cache_hit_share":    share(hits, opt),
		"buffered_share":     share(buffered, opt),
		"forwarded_share":    share(forwarded, opt),
		"over_window_share":  share(over, opt),
	}
	hs := append([]float64(nil), w.heap...)
	rec["heap_live_window_mb"] = map[string]float64{"mean": mean(hs) / (1 << 20),
		"p50": percentile(hs, 50) / (1 << 20), "peak": percentile(hs, 100) / (1 << 20)}
	return rec
}

// kindOf names an op's kind for by-kind medians; resubmits that hit the
// cache are "hit".
func kindOf(r *opResult) string {
	if r.op.kind == kindSubmit && r.cached {
		return "hit"
	}
	return r.op.kind
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
