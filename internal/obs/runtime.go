package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeSampler is an always-on, low-overhead poller over the
// runtime/metrics package: every interval it reads heap size, goroutine
// count, GC activity, and scheduler latency, keeps the latest reading
// for gauge exports, and retains a bounded ring of recent samples for
// GET /v1/debug/runtime. The sample buffers are allocated once and
// reused, so a tick costs a fixed, small number of allocations
// (runtime/metrics reuses histogram buckets across reads) — gated in
// scripts/bench_gates.txt.

// DefaultRuntimeSampleInterval is the tick period when the configured
// interval is zero.
const DefaultRuntimeSampleInterval = 5 * time.Second

// DefaultRuntimeRing bounds the retained samples when the configured
// ring size is zero: 120 samples x 5s = the last 10 minutes.
const DefaultRuntimeRing = 120

// RuntimeSample is one reading of the Go runtime's vital signs.
type RuntimeSample struct {
	UnixMS            int64 `json:"unix_ms"`
	HeapBytes         int64 `json:"heap_bytes"`
	Goroutines        int64 `json:"goroutines"`
	GCCycles          int64 `json:"gc_cycles"`
	GCPauseP99NS      int64 `json:"gc_pause_p99_ns"`
	SchedLatencyP99NS int64 `json:"sched_latency_p99_ns"`
}

// The runtime/metrics keys the sampler reads, in sample-slice order.
const (
	idxHeap = iota
	idxGoroutines
	idxGCCycles
	idxGCPauses
	idxSchedLat
	numRuntimeSamples
)

var runtimeSampleNames = [numRuntimeSamples]string{
	idxHeap:       "/memory/classes/heap/objects:bytes",
	idxGoroutines: "/sched/goroutines:goroutines",
	idxGCCycles:   "/gc/cycles/total:gc-cycles",
	idxGCPauses:   "/gc/pauses:seconds",
	idxSchedLat:   "/sched/latencies:seconds",
}

// RuntimeSampler polls runtime/metrics into a bounded ring. Create with
// NewRuntimeSampler; Start launches the ticker goroutine, Stop halts it.
// Sample may also be called directly (tests, benchmarks) — it is safe
// concurrently with readers but not with itself.
type RuntimeSampler struct {
	interval time.Duration
	buf      []metrics.Sample // reused across reads

	mu   sync.Mutex
	last RuntimeSample
	ring *Ring[RuntimeSample]

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewRuntimeSampler builds a sampler with the given tick interval
// (<= 0 means DefaultRuntimeSampleInterval) and ring capacity (<= 0 means
// DefaultRuntimeRing). It does not start the ticker.
func NewRuntimeSampler(interval time.Duration, ringSize int) *RuntimeSampler {
	if interval <= 0 {
		interval = DefaultRuntimeSampleInterval
	}
	if ringSize <= 0 {
		ringSize = DefaultRuntimeRing
	}
	s := &RuntimeSampler{
		interval: interval,
		buf:      make([]metrics.Sample, numRuntimeSamples),
		ring:     NewRing[RuntimeSample](ringSize),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range s.buf {
		s.buf[i].Name = runtimeSampleNames[i]
	}
	return s
}

// Interval returns the tick period.
func (s *RuntimeSampler) Interval() time.Duration { return s.interval }

// Start takes an immediate first sample and launches the ticker.
func (s *RuntimeSampler) Start() {
	s.Sample()
	go s.run()
}

// Stop halts the ticker and waits for it to exit. Safe to call more
// than once.
func (s *RuntimeSampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

func (s *RuntimeSampler) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sample()
		}
	}
}

// Sample takes one reading: read the runtime metrics into the reused
// buffer, derive the sample, and publish it as both the latest value
// and a ring entry.
func (s *RuntimeSampler) Sample() {
	metrics.Read(s.buf)
	sm := RuntimeSample{
		UnixMS:            time.Now().UnixMilli(),
		HeapBytes:         int64(s.buf[idxHeap].Value.Uint64()),
		Goroutines:        int64(s.buf[idxGoroutines].Value.Uint64()),
		GCCycles:          int64(s.buf[idxGCCycles].Value.Uint64()),
		GCPauseP99NS:      histP99NS(s.buf[idxGCPauses].Value.Float64Histogram()),
		SchedLatencyP99NS: histP99NS(s.buf[idxSchedLat].Value.Float64Histogram()),
	}
	s.mu.Lock()
	s.last = sm
	s.ring.Push(sm)
	s.mu.Unlock()
}

// Last returns the most recent sample (zero before the first tick).
func (s *RuntimeSampler) Last() RuntimeSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Snapshot returns the retained samples, newest first.
func (s *RuntimeSampler) Snapshot() []RuntimeSample { return s.ring.Snapshot() }

// histP99NS estimates the 99th percentile of a runtime/metrics duration
// histogram in nanoseconds, taking each crossed bucket's upper bound.
// The runtime's histograms are cumulative over the process lifetime,
// so this is a lifetime p99, cheap and monotonic-friendly — the point
// is spotting pause or latency regressions at a glance, not precision.
func histP99NS(h *metrics.Float64Histogram) int64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := total - total/100 // ceil-ish 99%
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Buckets has len(Counts)+1 boundaries; bucket i spans
			// [Buckets[i], Buckets[i+1]). The last upper bound may be
			// +Inf — fall back to the finite lower bound.
			ub := h.Buckets[i+1]
			if ub > 1e18 || ub != ub { // +Inf or NaN guard
				ub = h.Buckets[i]
			}
			if ub < 0 {
				ub = 0
			}
			return int64(ub * 1e9)
		}
	}
	return 0
}
