package obs

import (
	"context"
	"sync"
	"time"
)

// DefaultSpanCapacity bounds a Recorder when the caller passes 0: large
// enough for every phase of one optimization job with headroom, small
// enough that a malicious or pathological job cannot grow memory.
const DefaultSpanCapacity = 128

// maxSpanAttrs is the fixed attribute capacity per span; attributes
// beyond it are silently ignored (the hot path never allocates).
const maxSpanAttrs = 4

// Attr is one integer span attribute (bytes processed, items pruned...).
type Attr struct {
	Key   string
	Value int64
}

// SpanData is one recorded span: a named interval relative to the
// recorder's epoch. Dur < 0 marks a span that has started but not ended.
type SpanData struct {
	Name  string
	Start time.Duration // offset from Recorder.Begin()
	Dur   time.Duration // -1 while in progress
	Attrs [maxSpanAttrs]Attr
	NAttr int
}

// Recorder is a bounded per-job span buffer. The capacity is fixed at
// construction: recording within capacity is allocation-free, and spans
// beyond it are dropped and counted rather than grown — a wedged or
// looping job cannot turn its own telemetry into a memory leak.
//
// A Recorder is safe for concurrent use (pipeline phases may overlap
// across pool workers).
type Recorder struct {
	mu      sync.Mutex
	begin   time.Time
	spans   []SpanData
	dropped int64
	onDrop  func()
}

// NewRecorder creates a recorder with the given span capacity (0 means
// DefaultSpanCapacity) whose epoch is now.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Recorder{begin: time.Now(), spans: make([]SpanData, 0, capacity)}
}

// SetDropHook registers f to be called once per dropped span (e.g. a
// registry counter's Inc). Call before recording starts.
func (r *Recorder) SetDropHook(f func()) { r.onDrop = f }

// Begin returns the recorder's epoch: span Start offsets are relative
// to it.
func (r *Recorder) Begin() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.begin
}

// Reset empties the recorder and moves its epoch to now, keeping the
// buffer capacity. For recorder reuse across jobs.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.begin = time.Now()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// Compact shrinks the buffer to exactly the spans recorded so far, for
// a recorder that is done recording but is kept for reading, like a
// finished job's. The buffer is then full: a span started afterwards is
// dropped and counted, as past any capacity. Spans already started can
// still End and take attributes.
func (r *Recorder) Compact() {
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		spans := make([]SpanData, len(r.spans))
		copy(spans, r.spans)
		r.spans = spans
	}
	r.mu.Unlock()
}

// Snapshot returns a copy of the recorded spans (in start order) and
// the number of spans dropped by the capacity bound.
func (r *Recorder) Snapshot() ([]SpanData, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, len(r.spans))
	copy(out, r.spans)
	return out, r.dropped
}

// Dropped returns the number of spans lost to the capacity bound.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Record adds an externally timed span (e.g. queue wait measured from
// timestamps the recorder did not observe).
func (r *Recorder) Record(name string, start time.Time, d time.Duration) {
	r.mu.Lock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		hook := r.onDrop
		r.mu.Unlock()
		if hook != nil {
			hook()
		}
		return
	}
	idx := len(r.spans)
	r.spans = r.spans[:idx+1]
	sd := &r.spans[idx]
	sd.Name = name
	sd.Start = start.Sub(r.begin)
	sd.Dur = d
	sd.NAttr = 0
	r.mu.Unlock()
}

// startSpan reserves a slot and returns its index, or -1 when the
// buffer is full (the span is dropped and counted).
func (r *Recorder) startSpan(name string, t time.Time) int32 {
	r.mu.Lock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		hook := r.onDrop
		r.mu.Unlock()
		if hook != nil {
			hook()
		}
		return -1
	}
	idx := int32(len(r.spans))
	r.spans = r.spans[:idx+1]
	sd := &r.spans[idx]
	sd.Name = name
	sd.Start = t.Sub(r.begin)
	sd.Dur = -1
	sd.NAttr = 0
	r.mu.Unlock()
	return idx
}

// Span is a handle to one in-progress span. The zero value (no recorder
// on the context) is a valid no-op: End and SetAttr do nothing, so
// instrumented code never branches on whether telemetry is attached.
type Span struct {
	rec   *Recorder
	idx   int32
	start time.Time
}

// StartSpan begins a named span recorded into ctx's Recorder. When the
// context carries no recorder the returned Span is a no-op and no clock
// is read. The StartSpan/End pair allocates nothing.
func StartSpan(ctx context.Context, name string) Span {
	rec := RecorderFrom(ctx)
	if rec == nil {
		return Span{idx: -1}
	}
	t := time.Now()
	return Span{rec: rec, idx: rec.startSpan(name, t), start: t}
}

// End completes the span, recording its duration.
func (s Span) End() {
	if s.rec == nil || s.idx < 0 {
		return
	}
	d := time.Since(s.start)
	s.rec.mu.Lock()
	s.rec.spans[s.idx].Dur = d
	s.rec.mu.Unlock()
}

// SetAttr attaches an integer attribute to the span. Attributes beyond
// the fixed per-span capacity are dropped.
func (s Span) SetAttr(key string, v int64) {
	if s.rec == nil || s.idx < 0 {
		return
	}
	s.rec.mu.Lock()
	sd := &s.rec.spans[s.idx]
	if sd.NAttr < maxSpanAttrs {
		sd.Attrs[sd.NAttr] = Attr{Key: key, Value: v}
		sd.NAttr++
	}
	s.rec.mu.Unlock()
}
