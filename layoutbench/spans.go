package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call: an HTTP request of an op, the op itself, or a
// layer call replayed for the op. Names follow the server's phase
// vocabulary (trace.decode, stream.feed, cachesim.replay, store.write,
// ...). Parent is the op span's index; 0 marks a root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog keeps every span in memory until the run writes them out.
// Index 0 is a sentinel so a zero parent means "no parent".
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// cost is the time spent inside begin and end, the recorder's own
	// overhead.
	cost time.Duration
}

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, spans: []span{{Name: "root"}}}
}

func (l *spanLog) begin(name string, op, parent int) int {
	t := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: t.Sub(l.epoch)})
	i := len(l.spans) - 1
	l.cost += time.Since(t)
	l.mu.Unlock()
	return i
}

func (l *spanLog) end(i int) {
	t := time.Now()
	l.mu.Lock()
	l.spans[i].End = t.Sub(l.epoch)
	l.cost += time.Since(t)
	l.mu.Unlock()
}

// record adds a finished span.
func (l *spanLog) record(name string, op, parent int, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: start.Sub(l.epoch), End: end.Sub(l.epoch)})
	l.mu.Unlock()
}

// selfTimes sums each span's self time, its duration minus the part its
// children cover, by op and name.
func (l *spanLog) selfTimes() map[int]map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans[1:] {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[int]map[string]time.Duration)
	for i, s := range l.spans[1:] {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Op] = m
		}
		m[s.Name] += s.dur() - child[i+1]
	}
	return out
}

// opSpans maps each op to the index of its op span.
func (l *spanLog) opSpans() map[int]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[int]int)
	for i, s := range l.spans {
		if strings.HasPrefix(s.Name, "op.") {
			m[s.Op] = i
		}
	}
	return m
}

// write stores every span as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans[1:])
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
