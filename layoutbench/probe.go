package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"codelayout/internal/obs"
)

// scrape reads every node's /metrics and sums each series name over its
// labels and over the nodes.
func scrape(ctx context.Context, hc *http.Client, urls []string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		exp, err := obs.ParsePrometheusText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", u, err)
		}
		for _, s := range exp.Series {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// delta is after minus before for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples /gc/heap/live:bytes at a fixed period while it
// runs, for the run record. The value moves only when a GC cycle ends,
// so the samples trace the live heap over time; their peak and even
// their mean are decided by which analyses the GC cycles happened to
// catch in flight, and swing by a third between runs of one workload.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

const heapLiveMetric = "/gc/heap/live:bytes"

// retainedHeap is the live heap once in-flight work is done: two full
// collections (the second empties sync.Pool victims, where the analysis
// arenas wait) and a read. It holds what the nodes keep between
// requests — caches, job records, store indexes — plus the client's
// inputs, which are the same on every commit.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapLiveMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in bytes.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	h.wg.Wait()
	return h.samples
}
