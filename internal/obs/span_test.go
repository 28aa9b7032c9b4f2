package obs

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	rec := NewRecorder(8)
	ctx := WithRecorder(context.Background(), rec)

	s := StartSpan(ctx, "phase.a")
	s.SetAttr("bytes", 1234)
	time.Sleep(time.Millisecond)
	s.End()

	spans, dropped := rec.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 1 {
		t.Fatalf("len(spans) = %d, want 1", len(spans))
	}
	sd := spans[0]
	if sd.Name != "phase.a" {
		t.Fatalf("name = %q", sd.Name)
	}
	if sd.Dur <= 0 {
		t.Fatalf("dur = %v, want > 0", sd.Dur)
	}
	if sd.Start < 0 {
		t.Fatalf("start = %v, want >= 0", sd.Start)
	}
	if sd.NAttr != 1 || sd.Attrs[0] != (Attr{Key: "bytes", Value: 1234}) {
		t.Fatalf("attrs = %v (n=%d)", sd.Attrs, sd.NAttr)
	}
}

func TestSpanNoRecorderIsNoop(t *testing.T) {
	s := StartSpan(context.Background(), "ignored")
	s.SetAttr("k", 1) // must not panic
	s.End()
	var zero Span
	zero.End()
	zero.SetAttr("k", 1)
}

func TestSpanInProgressMarker(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	_ = StartSpan(ctx, "never.ended")
	spans, _ := rec.Snapshot()
	if len(spans) != 1 || spans[0].Dur != -1 {
		t.Fatalf("in-progress span dur = %v, want -1", spans[0].Dur)
	}
}

func TestRecorderBoundAndDropHook(t *testing.T) {
	rec := NewRecorder(2)
	var hookCalls int
	rec.SetDropHook(func() { hookCalls++ })
	ctx := WithRecorder(context.Background(), rec)

	for i := 0; i < 5; i++ {
		s := StartSpan(ctx, "x")
		s.End()
	}
	spans, dropped := rec.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("len(spans) = %d, want 2 (bounded)", len(spans))
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if hookCalls != 3 {
		t.Fatalf("drop hook calls = %d, want 3", hookCalls)
	}
	if rec.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", rec.Dropped())
	}
}

// TestRecorderCompact: compaction keeps every recorded span, leaves the
// buffer exactly full, still lets an open span end and take attributes,
// and drops and counts any span started afterwards.
func TestRecorderCompact(t *testing.T) {
	rec := NewRecorder(128)
	var hookCalls int
	rec.SetDropHook(func() { hookCalls++ })
	ctx := WithRecorder(context.Background(), rec)
	StartSpan(ctx, "a").End()
	rec.Record("queue.wait", rec.Begin(), time.Millisecond)
	open := StartSpan(ctx, "open")
	before, _ := rec.Snapshot()

	rec.Compact()
	if len(rec.spans) != 3 || cap(rec.spans) != 3 {
		t.Fatalf("after compaction len %d cap %d, want 3 and 3", len(rec.spans), cap(rec.spans))
	}
	after, dropped := rec.Snapshot()
	if !reflect.DeepEqual(after, before) || dropped != 0 {
		t.Fatalf("compaction changed the spans: %+v vs %+v (dropped %d)", after, before, dropped)
	}

	open.SetAttr("n", 7)
	open.End()
	StartSpan(ctx, "late").End()
	rec.Record("late", rec.Begin(), time.Millisecond)
	spans, dropped := rec.Snapshot()
	if len(spans) != 3 || dropped != 2 || hookCalls != 2 {
		t.Fatalf("after late spans: %d spans, %d dropped, %d hook calls; want 3, 2, 2", len(spans), dropped, hookCalls)
	}
	if sp := spans[2]; sp.Name != "open" || sp.Dur < 0 || sp.NAttr != 1 || sp.Attrs[0] != (Attr{"n", 7}) {
		t.Fatalf("open span after compaction = %+v", sp)
	}
	rec.Compact() // a full buffer stays as it is
	if cap(rec.spans) != 3 {
		t.Fatalf("second compaction cap %d", cap(rec.spans))
	}
}

func TestRecorderRecordExternal(t *testing.T) {
	rec := NewRecorder(4)
	begin := rec.Begin()
	start := begin.Add(5 * time.Millisecond)
	rec.Record("queue.wait", start, 7*time.Millisecond)
	spans, _ := rec.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("len = %d", len(spans))
	}
	if spans[0].Start != 5*time.Millisecond || spans[0].Dur != 7*time.Millisecond {
		t.Fatalf("span = %+v", spans[0])
	}
}

func TestRecorderReset(t *testing.T) {
	rec := NewRecorder(2)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 3; i++ {
		StartSpan(ctx, "x").End()
	}
	before := rec.Begin()
	time.Sleep(time.Millisecond)
	rec.Reset()
	spans, dropped := rec.Snapshot()
	if len(spans) != 0 || dropped != 0 {
		t.Fatalf("after reset: %d spans, %d dropped", len(spans), dropped)
	}
	if !rec.Begin().After(before) {
		t.Fatal("reset did not advance epoch")
	}
	// Capacity retained: recording still works and still bounds at 2.
	for i := 0; i < 3; i++ {
		StartSpan(ctx, "y").End()
	}
	spans, dropped = rec.Snapshot()
	if len(spans) != 2 || dropped != 1 {
		t.Fatalf("after reuse: %d spans, %d dropped", len(spans), dropped)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(1024)
	ctx := WithRecorder(context.Background(), rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := StartSpan(ctx, "conc")
				s.SetAttr("i", int64(i))
				s.End()
			}
		}()
	}
	wg.Wait()
	spans, dropped := rec.Snapshot()
	if len(spans) != 800 || dropped != 0 {
		t.Fatalf("spans = %d dropped = %d, want 800/0", len(spans), dropped)
	}
	for _, sd := range spans {
		if sd.Dur < 0 {
			t.Fatalf("unfinished span in concurrent run: %+v", sd)
		}
	}
}

func TestSpanZeroAlloc(t *testing.T) {
	rec := NewRecorder(4096)
	ctx := WithRecorder(context.Background(), rec)
	allocs := testing.AllocsPerRun(1000, func() {
		s := StartSpan(ctx, "hot")
		s.SetAttr("n", 1)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("span start/attr/end allocs = %v, want 0", allocs)
	}
}

func TestSpanNoRecorderZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		s := StartSpan(ctx, "hot")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("no-recorder span allocs = %v, want 0", allocs)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	rec := NewRecorder(1024)
	ctx := WithRecorder(context.Background(), rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1023 == 0 {
			b.StopTimer()
			rec.Reset() // stay on the record path, not the drop path
			b.StartTimer()
		}
		s := StartSpan(ctx, "bench")
		s.End()
	}
}

func BenchmarkSpanStartEndDropped(b *testing.B) {
	// The saturated path: buffer full, every span dropped + counted.
	rec := NewRecorder(1)
	StartSpan(WithRecorder(context.Background(), rec), "fill").End()
	ctx := WithRecorder(context.Background(), rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := StartSpan(ctx, "bench")
		s.End()
	}
}
