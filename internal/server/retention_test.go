package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newRetentionServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func storedJob(id, status string, fin time.Time) *Job {
	return &Job{id: id, status: status, finished: fin}
}

func TestJobRetentionTTL(t *testing.T) {
	s := newRetentionServer(t, Config{JobTTL: time.Minute, MaxJobs: 100})
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }

	s.storeJob(storedJob("done-old", StatusDone, now))
	s.storeJob(storedJob("failed-old", StatusFailed, now))
	s.storeJob(storedJob("running", StatusRunning, time.Time{}))
	if got := s.JobsTracked(); got != 3 {
		t.Fatalf("tracked = %d, want 3", got)
	}

	// Within TTL nothing expires.
	now = now.Add(30 * time.Second)
	s.storeJob(storedJob("done-new", StatusDone, now))
	if got := s.JobsTracked(); got != 4 {
		t.Fatalf("tracked = %d, want 4", got)
	}

	// Past TTL the old terminal jobs go; running and fresh ones stay.
	now = now.Add(45 * time.Second)
	s.storeJob(storedJob("trigger", StatusQueued, time.Time{}))
	s.mu.Lock()
	_, oldDone := s.jobs["done-old"]
	_, oldFailed := s.jobs["failed-old"]
	_, running := s.jobs["running"]
	_, newDone := s.jobs["done-new"]
	s.mu.Unlock()
	if oldDone || oldFailed {
		t.Error("terminal jobs past TTL were not pruned")
	}
	if !running {
		t.Error("running job was pruned")
	}
	if !newDone {
		t.Error("terminal job within TTL was pruned")
	}
}

func TestJobRetentionMaxJobs(t *testing.T) {
	s := newRetentionServer(t, Config{JobTTL: time.Hour, MaxJobs: 4})
	base := time.Unix(2000, 0)
	s.now = func() time.Time { return base }

	for i := 0; i < 4; i++ {
		s.storeJob(storedJob(fmt.Sprintf("done-%d", i), StatusDone, base.Add(time.Duration(i)*time.Second)))
	}
	s.storeJob(storedJob("overflow", StatusDone, base.Add(10*time.Second)))
	if got := s.JobsTracked(); got > 4 {
		t.Fatalf("tracked = %d, want <= MaxJobs (4)", got)
	}
	s.mu.Lock()
	_, oldest := s.jobs["done-0"]
	_, newest := s.jobs["overflow"]
	s.mu.Unlock()
	if oldest {
		t.Error("oldest terminal job survived the cap")
	}
	if !newest {
		t.Error("newly stored job was evicted")
	}
}

func TestJobRetentionKeepsActiveOverCap(t *testing.T) {
	s := newRetentionServer(t, Config{JobTTL: time.Hour, MaxJobs: 2})
	base := time.Unix(3000, 0)
	s.now = func() time.Time { return base }

	for i := 0; i < 5; i++ {
		s.storeJob(storedJob(fmt.Sprintf("run-%d", i), StatusRunning, time.Time{}))
	}
	// Active jobs are never evicted, even far over the cap.
	if got := s.JobsTracked(); got != 5 {
		t.Fatalf("tracked = %d, want 5 (active jobs exempt from cap)", got)
	}
}

// TestJobRetentionOrder: retention follows the order jobs finish in,
// not the order they were created in. A job created first but finished
// last outlives the jobs that finished before it, an entry whose job
// has left the map is skipped, and jobs finished on other goroutines
// while submissions prune stay within the cap.
func TestJobRetentionOrder(t *testing.T) {
	s := newRetentionServer(t, Config{JobTTL: time.Hour, MaxJobs: 3})
	now := time.Unix(4000, 0)
	s.now = func() time.Time { return now }
	lookup := func(id string) *Job {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id]
	}
	tracked := func(id string) bool { return lookup(id) != nil }
	drop := func(id string) {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
	}

	first := storedJob("first", StatusRunning, time.Time{})
	a := storedJob("a", StatusRunning, time.Time{})
	b := storedJob("b", StatusRunning, time.Time{})
	for _, j := range []*Job{first, a, b} {
		s.storeJob(j)
	}
	for _, j := range []*Job{a, b, first} {
		now = now.Add(time.Second)
		s.finish(j, StatusDone, nil, nil)
	}
	s.storeJob(storedJob("c", StatusQueued, time.Time{}))
	if tracked("a") || !tracked("b") || !tracked("first") {
		t.Fatalf("after one eviction: a %v, b %v, first %v; want only a evicted", tracked("a"), tracked("b"), tracked("first"))
	}
	s.storeJob(storedJob("d", StatusQueued, time.Time{}))
	if tracked("b") || !tracked("first") {
		t.Fatalf("after two evictions: b %v, first %v; want b evicted, first kept", tracked("b"), tracked("first"))
	}

	// Drop the finished job "first" from the map, as a rejected
	// admission drops its job: its entry must not count as an eviction,
	// so the next submission over the cap evicts the later-finished x.
	x := storedJob("x", StatusRunning, time.Time{})
	drop("c")
	s.storeJob(x)
	now = now.Add(time.Second)
	s.finish(x, StatusDone, nil, nil)
	drop("first")
	s.storeJob(storedJob("e", StatusQueued, time.Time{}))
	if !tracked("e") || !tracked("x") || s.JobsTracked() != 3 {
		t.Fatalf("under the cap after a drop: tracked %d, x %v; want 3 with x kept", s.JobsTracked(), tracked("x"))
	}
	s.storeJob(storedJob("f", StatusQueued, time.Time{}))
	if tracked("x") || !tracked("f") {
		t.Fatalf("over the cap: x %v, f %v; want x evicted past the dropped entry", tracked("x"), tracked("f"))
	}

	// Past the TTL, the expired entries go whatever the cap.
	now = now.Add(2 * time.Hour)
	s.finish(lookup("d"), StatusDone, nil, nil)
	now = now.Add(2 * time.Hour)
	s.storeJob(storedJob("g", StatusQueued, time.Time{}))
	if tracked("d") {
		t.Fatal("a job past its TTL was kept")
	}

	// Jobs finishing on their own goroutines while submissions prune:
	// once all have finished, the next submission brings the map under
	// the cap.
	for _, id := range []string{"e", "f", "g"} {
		s.finish(lookup(id), StatusDone, nil, nil)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		j := storedJob(fmt.Sprintf("run-%d", i), StatusRunning, time.Time{})
		s.storeJob(j)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.finish(j, StatusDone, nil, nil)
		}()
		s.storeJob(storedJob(fmt.Sprintf("hit-%d", i), StatusDone, now))
	}
	wg.Wait()
	s.storeJob(storedJob("last", StatusQueued, time.Time{}))
	if got := s.JobsTracked(); got > 3 {
		t.Fatalf("tracked %d after the concurrent finishes, want at most MaxJobs (3)", got)
	}
}
