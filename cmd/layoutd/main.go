// Command layoutd serves the layout-optimization pipeline over HTTP:
// clients stream CLTR traces to it, it queues optimization jobs on a
// bounded worker pool, caches results by content address, and exposes
// plain-text metrics. With -store-dir the content-addressed cache is
// durable: completed layouts are written crash-safely to disk and
// survive restarts; disk failures degrade the daemon to memory-only
// (visible in /healthz and layoutd_store_state) instead of taking it
// down. See internal/server for the API surface and cmd/layoutctl for
// a client.
//
// Logs are structured JSON on stderr (one object per line); every
// job-scoped line carries the job's trace_id, correlating logs with
// the span timeline at /v1/jobs/{id}/trace and the summaries at
// /v1/debug/jobs.
//
// Usage:
//
//	layoutd -addr 127.0.0.1:8080 -jobs 4 -queue 64
//	layoutd -addr 127.0.0.1:0 -ready-file /tmp/layoutd.addr
//	layoutd -store-dir /var/lib/layoutd -store-max-bytes 1073741824
//	layoutd -log-level debug                                           # per-request detail
//	layoutd -debug-addr 127.0.0.1:6060                                 # net/http/pprof
//	layoutd -store-dir /tmp/s -fault-spec 'write:every=1,err=ENOSPC'   # smoke-test degraded mode
//	layoutd -node-id n1 -peers 'n1=http://127.0.0.1:8080,n2=http://127.0.0.1:8081,n3=http://127.0.0.1:8082' \
//	        -replicas 2 -store-dir /var/lib/layoutd-n1               # one member of a 3-node cluster
//
// With -peers, the daemon joins a static cluster: every digest has an
// owner chosen by rendezvous hashing, non-owners forward requests to
// it transparently, and completed results replicate to -replicas nodes
// so any member can serve any digest — including after the owner dies.
//
// On SIGTERM/SIGINT the daemon stops accepting work and drains queued
// and in-flight jobs, bounded by -drain-timeout; a drain that has to
// abandon wedged work exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/fault"
	"codelayout/internal/obs"
	"codelayout/internal/server"
	"codelayout/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	jobs := flag.Int("jobs", 0, "concurrent optimization jobs: 0 = all cores")
	queue := flag.Int("queue", server.DefaultQueueDepth, "queued-job limit before submissions get 429")
	optWorkers := flag.Int("opt-workers", 1, "analysis concurrency inside one job: 0 = all cores")
	jobTimeout := flag.Duration("job-timeout", server.DefaultJobTimeout, "per-job deadline, queue wait included")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on draining in-flight jobs at shutdown")
	maxTrace := flag.Int64("max-trace-bytes", server.DefaultMaxTraceBytes, "upload size cap")
	jobTTL := flag.Duration("job-ttl", server.DefaultJobTTL, "retention of completed-job status records")
	maxJobs := flag.Int("max-jobs", server.DefaultMaxJobs, "tracked-job cap; oldest completed jobs evicted first")
	readyFile := flag.String("ready-file", "", "write the bound address to this file once listening")
	logLevel := flag.String("log-level", "info", "structured-log threshold: debug, info, warn, or error")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	spanBuffer := flag.Int("span-buffer", 0, "per-job trace span capacity (0 = default; overflow counted in layoutd_spans_dropped_total)")
	storeDir := flag.String("store-dir", "", "directory for the durable result store (empty = memory-only)")
	storeMaxBytes := flag.Int64("store-max-bytes", store.DefaultMaxBytes, "LRU byte bound on the durable store")
	storeQueue := flag.Int("store-queue", store.DefaultQueueDepth, "write-behind queue depth of the durable store")
	faultSpec := flag.String("fault-spec", "", "DEBUG: inject store filesystem faults, e.g. 'write:every=1,err=ENOSPC' (requires -store-dir)")
	traceCache := flag.Int("trace-cache", server.DefaultTraceCacheEntries, "decoded traces retained in memory for /v1/corun and /v1/schedule replay")
	maxSchedule := flag.Int("max-schedule", server.DefaultMaxScheduleDigests, "layout digests accepted per /v1/schedule request")
	streamWindow := flag.Int64("stream-window", server.DefaultStreamWindow, "decoded-trace bytes one submission may buffer: a trace that fits is held and analyzed after its upload, a larger one while it uploads (<= 0 = default)")
	uploadDir := flag.String("upload-dir", "", "directory for resumable-upload spools (empty = uploads disabled)")
	uploadMaxSessions := flag.Int("upload-sessions", store.DefaultMaxUploadSessions, "concurrently open resumable-upload sessions")
	nodeID := flag.String("node-id", "", "this node's cluster ID (required with -peers)")
	peersSpec := flag.String("peers", "", "static cluster membership as comma-separated id=url pairs, self included, e.g. 'n1=http://127.0.0.1:8080,n2=http://127.0.0.1:8081'")
	replicas := flag.Int("replicas", 2, "nodes that should hold each blob, owner included (with -peers)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "peer /healthz poll period (with -peers)")
	antiEntropy := flag.Duration("antientropy", 30*time.Second, "anti-entropy repair sweep period, jittered ±25%; 0 disables (with -peers and -store-dir)")
	antiEntropyMax := flag.Int("antientropy-max", cluster.DefaultAntiEntropyMaxPerSweep, "repair pushes per anti-entropy sweep (rate limit)")
	eventRing := flag.Int("event-ring", server.DefaultEventRing, "state-transition events retained at /v1/debug/events")
	runtimeSample := flag.Duration("runtime-sample", obs.DefaultRuntimeSampleInterval, "runtime-telemetry sampler tick period (feeds layoutd_runtime_* and /v1/debug/runtime)")
	runtimeRing := flag.Int("runtime-ring", obs.DefaultRuntimeRing, "runtime-telemetry samples retained at /v1/debug/runtime")
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	var st *store.Store
	if *storeDir != "" {
		storeLog := logger.With("subsys", "store")
		scfg := store.Config{
			Dir:        *storeDir,
			MaxBytes:   *storeMaxBytes,
			QueueDepth: *storeQueue,
			Logf: func(format string, args ...any) {
				storeLog.Info(fmt.Sprintf(format, args...))
			},
		}
		if *faultSpec != "" {
			rules, err := fault.ParseSpec(*faultSpec)
			if err != nil {
				fatal("bad -fault-spec", err)
			}
			logger.Warn("DEBUG: store filesystem faults active", "spec", *faultSpec)
			scfg.FS = fault.NewInjector(fault.OS(), rules...)
		}
		var err error
		st, err = store.Open(scfg)
		if err != nil {
			// A broken store directory must not take the service down:
			// run memory-only, exactly like the degraded mode a runtime
			// failure produces.
			logger.Warn("durable store disabled (running memory-only)", "err", err)
		} else {
			stats := st.Stats()
			logger.Info("durable store opened", "dir", *storeDir,
				"blobs", stats.Blobs, "bytes", stats.Bytes, "quarantined", stats.Quarantined)
		}
	} else if *faultSpec != "" {
		fatal("flag error", errors.New("-fault-spec requires -store-dir"))
	}

	var uploads *store.Uploads
	if *uploadDir != "" {
		uploadLog := logger.With("subsys", "uploads")
		uploads, err = store.OpenUploads(store.UploadsConfig{
			Dir:         *uploadDir,
			MaxBytes:    *maxTrace,
			MaxSessions: *uploadMaxSessions,
			Logf: func(format string, args ...any) {
				uploadLog.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			fatal("upload spool", err)
		}
		logger.Info("resumable uploads enabled", "dir", *uploadDir,
			"max_sessions", *uploadMaxSessions, "recovered", uploads.Recovered())
	}

	var cl *cluster.Cluster
	if *peersSpec != "" {
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			fatal("bad -peers", err)
		}
		clusterLog := logger.With("subsys", "cluster")
		cl, err = cluster.New(cluster.Config{
			SelfID:                 *nodeID,
			Peers:                  peers,
			ReplicationFactor:      *replicas,
			HealthInterval:         *healthInterval,
			AntiEntropyInterval:    *antiEntropy,
			AntiEntropyMaxPerSweep: *antiEntropyMax,
			Logf: func(format string, args ...any) {
				clusterLog.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			fatal("cluster setup", err)
		}
		logger.Info("cluster member", "node_id", *nodeID,
			"peers", len(peers), "replicas", cl.ReplicationFactor(),
			"antientropy", antiEntropy.String())
	} else if *nodeID != "" {
		logger.Info("running single-node", "node_id", *nodeID)
	}

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling endpoints are
		// never exposed on the service address.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal("debug listener", err)
		}
		logger.Info("pprof debug server listening", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, http.DefaultServeMux); err != nil {
				logger.Error("debug server exited", "err", err)
			}
		}()
	}

	if err := run(logger, *addr, *readyFile, *drainTimeout, server.Config{
		JobWorkers:     *jobs,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		OptWorkers:     *optWorkers,
		MaxTraceBytes:  *maxTrace,
		JobTTL:         *jobTTL,
		MaxJobs:        *maxJobs,
		Store:          st,
		Logger:         logger,
		SpanBufferSize: *spanBuffer,

		TraceCacheEntries:  *traceCache,
		MaxScheduleDigests: *maxSchedule,

		StreamWindow: *streamWindow,
		Uploads:      uploads,

		Cluster: cl,
		NodeID:  *nodeID,

		EventRing:             *eventRing,
		RuntimeSampleInterval: *runtimeSample,
		RuntimeRing:           *runtimeRing,
	}); err != nil {
		fatal("layoutd exited", err)
	}
}

// parsePeers turns 'id=url,id=url,...' into the static peer set.
func parsePeers(spec string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("peer %q: want id=url", part)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: strings.TrimRight(u, "/")})
	}
	return peers, nil
}

func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", s)
}

func run(logger *slog.Logger, addr, readyFile string, drainTimeout time.Duration, cfg server.Config) error {
	s := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if readyFile != "" {
		if err := os.WriteFile(readyFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("signal received; draining", "bound", drainTimeout.String())

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := s.Shutdown(drainCtx); err != nil {
		// Wedged workers were abandoned: surface it to the supervisor.
		return err
	}
	logger.Info("drained cleanly")
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
