package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/url"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// Each workload at a tiny size must leave nothing behind: goroutines
// back to baseline, listeners closed, temp dirs and spools gone — on
// success and when its deadline fires after the nodes started.
func TestRunLeavesNothingRunning(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) { tinyRun(t, w, traced, 0) })
		}
		t.Run(w.name+"/deadline", func(t *testing.T) { tinyRun(t, w, false, 150*time.Millisecond) })
	}
}

func tinyRun(t *testing.T, w workloadSpec, traced bool, deadline time.Duration) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := runtime.NumGoroutine()
	// Truncated profiles make ops far faster than the op list is sized
	// for, so closed loops get a longer list.
	w.maxRate *= 50
	cfg := config{spec: w, seed: 11, window: 300 * time.Millisecond, traced: traced,
		setups: 1, maxRefs: testRefs, outDir: t.TempDir()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var urls []string
	res, err := bench(ctx, cfg, io.Discard, func(f *fleet) {
		for _, nd := range f.nodes {
			urls = append(urls, nd.url)
		}
		if deadline > 0 {
			time.AfterFunc(deadline, cancel)
		}
	})
	if deadline == 0 {
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("result %+v", res)
		}
	} else if err == nil {
		t.Fatal("a run past its deadline reported success")
	}
	if len(urls) == 0 {
		t.Fatal("no nodes started")
	}
	for _, u := range urls {
		pu, _ := url.Parse(u)
		if c, err := net.DialTimeout("tcp", pu.Host, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", u)
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temp dir holds %d entries after the run, first %s", len(left), left[0].Name())
	}
	// Client and peer connections close asynchronously once the servers
	// are gone; wait for the count to settle.
	var n int
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
}

// BENCHMARK.json states the workloads, the end-to-end metrics this
// command prints with --trace 0 and the per-layer table it prints with
// --trace 1.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, command has %s at %d", names, w.name, i)
		}
	}
	e2e := (&windowRun{spec: workloads[0], window: time.Second}).endToEnd([]float64{1})
	var want []string
	for k := range e2e {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	for _, m := range b.EndToEnd {
		got = append(got, m.Name)
		if e2e[m.Name].Unit != m.Unit || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end %s: unit %q better %q, command says unit %q", m.Name, m.Unit, m.Better, e2e[m.Name].Unit)
		}
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, command prints %v", got, want)
	}
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("%d per-layer metrics, table has %d", len(b.PerLayer), len(layerTable))
	}
	for i, l := range layerTable {
		if m := b.PerLayer[i]; m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, table says %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
}
