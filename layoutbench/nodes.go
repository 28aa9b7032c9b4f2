package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/obs"
	"codelayout/internal/server"
	"codelayout/internal/store"
)

// node is one in-process layoutd, wired the way cmd/layoutd wires it
// from its default flags.
type node struct {
	id    string
	url   string
	srv   *server.Server
	hs    *http.Server
	cl    *cluster.Cluster // nil single-node
	serve chan error
}

// fleet is the set of nodes a workload runs against, and the temp dir
// holding their stores.
type fleet struct {
	dir   string
	nodes []*node
}

// startFleet starts n nodes on 127.0.0.1:0 with durable stores under a
// fresh temp dir; n > 1 makes them a static cluster with replication
// factor 2. On error everything already started is shut down again.
func startFleet(n int) (f *fleet, err error) {
	dir, err := os.MkdirTemp("", "layoutbench-*")
	if err != nil {
		return nil, err
	}
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			f.close(ctx)
			f = nil
		}
	}()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return f, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	for i, ln := range lns {
		nd, err := startNode(filepath.Join(dir, peers[i].ID), peers[i], peers, logger, ln)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return f, err
		}
		f.nodes = append(f.nodes, nd)
	}
	return f, nil
}

func startNode(dir string, self cluster.Peer, peers []cluster.Peer, logger *slog.Logger, ln net.Listener) (*node, error) {
	storeLog := logger.With("subsys", "store")
	st, err := store.Open(store.Config{
		Dir:        dir,
		MaxBytes:   store.DefaultMaxBytes,
		QueueDepth: store.DefaultQueueDepth,
		Logf: func(format string, args ...any) {
			storeLog.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("opening store for %s: %w", self.ID, err)
	}
	nd := &node{id: self.ID, url: self.URL, serve: make(chan error, 1)}
	nodeID := ""
	if len(peers) > 1 {
		clusterLog := logger.With("subsys", "cluster")
		nd.cl, err = cluster.New(cluster.Config{
			SelfID:                 self.ID,
			Peers:                  peers,
			ReplicationFactor:      2,
			HealthInterval:         2 * time.Second,
			AntiEntropyInterval:    30 * time.Second,
			AntiEntropyMaxPerSweep: cluster.DefaultAntiEntropyMaxPerSweep,
			Logf: func(format string, args ...any) {
				clusterLog.Info(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		nodeID = self.ID
	}
	nd.srv = server.New(server.Config{
		JobWorkers:            0, // all cores
		QueueDepth:            server.DefaultQueueDepth,
		JobTimeout:            server.DefaultJobTimeout,
		OptWorkers:            1,
		MaxTraceBytes:         server.DefaultMaxTraceBytes,
		JobTTL:                server.DefaultJobTTL,
		MaxJobs:               server.DefaultMaxJobs,
		Store:                 st,
		Logger:                logger,
		TraceCacheEntries:     server.DefaultTraceCacheEntries,
		MaxScheduleDigests:    server.DefaultMaxScheduleDigests,
		StreamWindow:          server.DefaultStreamWindow,
		Cluster:               nd.cl,
		NodeID:                nodeID,
		EventRing:             server.DefaultEventRing,
		RuntimeSampleInterval: obs.DefaultRuntimeSampleInterval,
		RuntimeRing:           obs.DefaultRuntimeRing,
	})
	nd.hs = &http.Server{Handler: nd.srv.Handler()}
	go func() { nd.serve <- nd.hs.Serve(ln) }()
	return nd, nil
}

// close shuts the fleet down in one fixed order on every exit path:
// http.Server.Shutdown on every node, then server.Shutdown (which closes
// the cluster and the store), then the temp dir goes.
func (f *fleet) close(ctx context.Context) error {
	var errs []error
	for _, nd := range f.nodes {
		if err := nd.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: http shutdown: %w", nd.id, err))
		}
	}
	for _, nd := range f.nodes {
		if err := nd.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: drain: %w", nd.id, err))
		}
		if err := <-nd.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("%s: serve: %w", nd.id, err))
		}
	}
	if err := os.RemoveAll(f.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// urls maps node ID to base URL.
func (f *fleet) urls() map[string]string {
	m := make(map[string]string, len(f.nodes))
	for _, nd := range f.nodes {
		m[nd.id] = nd.url
	}
	return m
}
