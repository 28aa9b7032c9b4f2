package main

import (
	"context"
	"testing"
	"time"
)

func TestClosedLoopStopsAtWindowOrWhenDry(t *testing.T) {
	ops := make([]op, 1000)
	exec := func(ctx context.Context, o *op, r *opResult) { time.Sleep(2 * time.Millisecond) }
	res, dry, err := runClosed(context.Background(), time.Now(), 50*time.Millisecond, 2, ops, exec)
	if err != nil || dry != 0 {
		t.Fatalf("err %v, dry %v", err, dry)
	}
	if len(res) == 0 || len(res) > 60 {
		t.Fatalf("%d ops in a 50 ms window of 2 ms ops on 2 clients", len(res))
	}
	res, dry, err = runClosed(context.Background(), time.Now(), time.Second, 2, ops[:3], exec)
	if err != nil || len(res) != 3 {
		t.Fatalf("short op list: %d results, err %v", len(res), err)
	}
	if dry <= 0 || dry > 100*time.Millisecond {
		t.Fatalf("short op list ran dry at %v", dry)
	}
}
