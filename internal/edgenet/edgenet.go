// Package edgenet assembles multiple cache clouds into the large-scale
// edge cache network the paper targets ("a large scale cooperative edge
// cache network", Section 1): caches are grouped into clouds of nearby
// nodes — by explicit membership or by the landmark clustering of
// internal/landmark — and a single origin server serves group misses and
// publishes each update once per cloud.
//
// The network-level benefit the paper motivates is directly measurable
// here: with C clouds the origin sends C update messages per update
// instead of one per holding cache.
//
// Clouds interact only through the origin, which publishes every update
// to each of them, so a run simulates each cloud on its own with
// internal/sim — its members' requests plus every update — and sums the
// results.
package edgenet

import (
	"errors"
	"fmt"
	"sort"

	"cachecloud/internal/landmark"
	"cachecloud/internal/sim"
	"cachecloud/internal/trace"
)

// ErrBadNetwork is returned for invalid network configurations.
var ErrBadNetwork = errors.New("edgenet: invalid network")

// Config parameterises network construction and runs.
type Config struct {
	// RingSize is the beacon points per ring inside each cloud
	// (default 2, the paper's recommendation).
	RingSize int
	// CycleLength is the per-cloud rebalance period (default 60).
	CycleLength int64
}

func (c Config) withDefaults() Config {
	if c.RingSize < 1 {
		c.RingSize = 2
	}
	if c.CycleLength == 0 {
		c.CycleLength = 60
	}
	return c
}

// Network is an edge cache network: several cache clouds and one origin.
type Network struct {
	cfg     Config
	clouds  [][]string
	cloudOf map[string]int
}

// Build constructs a network from explicit cloud memberships.
func Build(memberships [][]string, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if len(memberships) == 0 {
		return nil, fmt.Errorf("%w: no clouds", ErrBadNetwork)
	}
	n := &Network{cfg: cfg, cloudOf: make(map[string]int)}
	for i, members := range memberships {
		if len(members) < cfg.RingSize {
			return nil, fmt.Errorf("%w: cloud %d has %d caches for rings of %d",
				ErrBadNetwork, i, len(members), cfg.RingSize)
		}
		for _, m := range members {
			if _, dup := n.cloudOf[m]; dup {
				return nil, fmt.Errorf("%w: cache %q in two clouds", ErrBadNetwork, m)
			}
			n.cloudOf[m] = i
		}
		n.clouds = append(n.clouds, append([]string(nil), members...))
	}
	return n, nil
}

// BuildFromTopology clusters the caches of an edge network into clouds
// with the landmark technique and builds the network over the result.
func BuildFromTopology(nodes []landmark.Node, lmCfg landmark.Config, cfg Config) (*Network, []landmark.Cloud, error) {
	cfg = cfg.withDefaults()
	if lmCfg.MinCloudSize < cfg.RingSize {
		lmCfg.MinCloudSize = cfg.RingSize
	}
	clusters, err := landmark.Cluster(nodes, lmCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("edgenet: cluster topology: %w", err)
	}
	memberships := make([][]string, len(clusters))
	for i, c := range clusters {
		memberships[i] = c.Members
	}
	n, err := Build(memberships, cfg)
	if err != nil {
		return nil, nil, err
	}
	return n, clusters, nil
}

// NumClouds returns the cloud count.
func (n *Network) NumClouds() int { return len(n.clouds) }

// CacheIDs returns every cache in the network, sorted.
func (n *Network) CacheIDs() []string {
	out := make([]string, 0, len(n.cloudOf))
	for id := range n.cloudOf {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CloudOf returns the cloud index for a cache, or -1 when unknown.
func (n *Network) CloudOf(cacheID string) int {
	if i, ok := n.cloudOf[cacheID]; ok {
		return i
	}
	return -1
}

// Result carries the metrics of one network run.
type Result struct {
	Requests    int64
	LocalHits   int64
	CloudHits   int64
	GroupMisses int64
	Updates     int64
	// UpdateMessages is origin→cloud update messages (updates × clouds) —
	// the cooperative-consistency cost the paper's design bounds.
	UpdateMessages int64
	// HolderRefreshes counts copies refreshed across all clouds; under a
	// per-holder push design the origin would send this many messages.
	HolderRefreshes int64
	ServerBytes     int64
	IntraCloudBytes int64
	// PerCloud summarises each cloud.
	PerCloud []CloudSummary
}

// CloudSummary is one cloud's view of a run.
type CloudSummary struct {
	Caches    int
	Requests  int64
	HitRate   float64 // (local + cloud hits) / requests
	BeaconCoV float64
}

// HitRate returns the network-wide in-network hit rate.
func (r *Result) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.LocalHits+r.CloudHits) / float64(r.Requests)
}

// Run drives a trace through the network. Request events must name caches
// that belong to some cloud.
func (n *Network) Run(tr *trace.Trace) (*Result, error) {
	if tr == nil || len(tr.Docs) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadNetwork)
	}
	parts := make([]trace.Trace, len(n.clouds))
	for i := range parts {
		parts[i] = trace.Trace{Docs: tr.Docs, Duration: tr.Duration}
	}
	for _, ev := range tr.Events {
		if ev.Kind != trace.Request {
			for i := range parts {
				parts[i].Events = append(parts[i].Events, ev)
			}
			continue
		}
		ci, ok := n.cloudOf[ev.Cache]
		if !ok {
			return nil, fmt.Errorf("%w: request for unknown cache %q", ErrBadNetwork, ev.Cache)
		}
		parts[ci].Events = append(parts[ci].Events, ev)
	}

	res := &Result{}
	for i, members := range n.clouds {
		r, err := sim.Run(sim.Config{
			Caches:      members,
			NumRings:    len(members) / n.cfg.RingSize,
			CycleLength: n.cfg.CycleLength,
		}, &parts[i])
		if err != nil {
			return nil, fmt.Errorf("edgenet: cloud %d: %w", i, err)
		}
		res.Requests += r.Requests
		res.LocalHits += r.LocalHits
		res.CloudHits += r.CloudHits
		res.GroupMisses += r.GroupMisses
		res.Updates = r.Updates // every cloud sees every update
		res.UpdateMessages += r.Updates
		res.HolderRefreshes += r.HoldersNotified
		res.ServerBytes += r.ServerBytes
		res.IntraCloudBytes += r.IntraCloudBytes
		res.PerCloud = append(res.PerCloud, CloudSummary{
			Caches:    len(members),
			Requests:  r.Requests,
			HitRate:   r.CloudHitRate(),
			BeaconCoV: r.BeaconLoads.CoV(),
		})
	}
	return res, nil
}
