package node

import (
	"context"
	"fmt"
	"time"

	"cachecloud/internal/obs"
	"cachecloud/internal/trace"
)

// ReplayResult summarises one trace replay against a live cluster.
type ReplayResult struct {
	Requests   int64
	LocalHits  int64
	PeerHits   int64
	OriginMiss int64
	Updates    int64
	Rebalances int64
	Errors     int64
	// Latency holds the client-side round-trip time of every document
	// request, in milliseconds.
	Latency obs.HistSnapshot
}

// HitRate returns the in-network hit rate of the replay.
func (r *ReplayResult) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.LocalHits+r.PeerHits) / float64(r.Requests)
}

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// RebalanceEvery triggers a sub-range determination cycle via the
	// origin every N trace time units (0 = never).
	RebalanceEvery int64
	// ReplicateOnRebalance runs the lazy replication pass after each
	// rebalance.
	ReplicateOnRebalance bool
}

// Replay drives a simulator trace through a live cluster over HTTP: each
// request event becomes a GET /doc at the named node, each update event a
// POST /publish at the origin. Trace cache IDs must match the cluster's
// node names. The replay runs as fast as the wire allows (trace time only
// schedules rebalances).
//
// This is the bridge between the two halves of the repository: workloads
// defined for the simulator can exercise the real protocol stack.
func Replay(cfg ClusterConfig, tr *trace.Trace, opts ReplayOptions) (*ReplayResult, error) {
	if tr == nil || len(tr.Events) == 0 {
		return nil, fmt.Errorf("node: empty trace")
	}
	// One attempt a call, as a client that counts its errors wants.
	tp := NewHTTPTransport(TransportOptions{RequestTimeout: 10 * time.Second, MaxRetries: -1, BreakerThreshold: -1})
	ctx := context.Background()
	res := &ReplayResult{}
	lat := obs.NewHistogram(obs.DefaultLatencyBounds())
	var nextCycle int64
	if opts.RebalanceEvery > 0 {
		nextCycle = opts.RebalanceEvery
	}

	for _, ev := range tr.Events {
		if opts.RebalanceEvery > 0 && ev.Time >= nextCycle {
			if err := tp.PostJSON(ctx, cfg.OriginAddr+"/rebalance", struct{}{}, nil); err != nil {
				return res, fmt.Errorf("node: replay rebalance: %w", err)
			}
			if opts.ReplicateOnRebalance {
				if err := tp.PostJSON(ctx, cfg.OriginAddr+"/replicate", struct{}{}, nil); err != nil {
					return res, fmt.Errorf("node: replay replicate: %w", err)
				}
			}
			res.Rebalances++
			nextCycle += opts.RebalanceEvery
		}
		switch ev.Kind {
		case trace.Request:
			base, ok := cfg.Addrs[ev.Cache]
			if !ok {
				return res, fmt.Errorf("node: trace names unknown cache %q", ev.Cache)
			}
			res.Requests++
			var dr DocResponse
			t0 := time.Now()
			err := tp.GetJSON(ctx, base+"/doc?url="+queryEscape(ev.URL), &dr)
			lat.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			if err != nil {
				res.Errors++
				continue
			}
			switch dr.Source {
			case "local":
				res.LocalHits++
			case "peer":
				res.PeerHits++
			case "origin":
				res.OriginMiss++
			}
		case trace.Update:
			res.Updates++
			if err := tp.PostJSON(ctx, cfg.OriginAddr+"/publish", PublishRequest{URL: ev.URL}, nil); err != nil {
				res.Errors++
			}
		}
	}
	res.Latency = lat.Snapshot()
	return res, nil
}
