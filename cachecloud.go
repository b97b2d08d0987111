// Package cachecloud is a Go implementation of Cache Clouds — the
// cooperative edge-caching architecture for dynamic web documents from
// Ramaswamy, Liu and Iyengar, "Cache Clouds: Cooperative Caching of Dynamic
// Documents in Edge Networks" (ICDCS 2005).
//
// A cache cloud is a group of edge caches in close network proximity that
// cooperate three ways: a cache that misses locally retrieves the document
// from a nearby cache instead of the origin server; the origin sends each
// document update to a single cache per cloud (the document's beacon
// point), which fans it out to the holders; and documents are placed across
// the cloud by a utility function that weighs the benefit of a new copy
// against its consistency-maintenance and disk-contention costs.
//
// This package is the public facade over the implementation packages:
//
//   - Cloud (internal/core): the cache cloud itself — two-step beacon
//     resolution, document lookup/update protocols, record migration and
//     failure resilience.
//   - Dynamic hashing (internal/ring): beacon rings whose intra-ring hash
//     sub-ranges rebalance every cycle in proportion to observed load.
//   - Placement policies (internal/placement): ad hoc, beacon point, and
//     the four-component utility scheme.
//   - Workloads (internal/trace): Zipf and Sydney-like trace generators
//     plus a trace file format.
//   - Simulator (internal/sim) and experiments (internal/experiments):
//     the paper's evaluation, one experiment per figure.
//   - Live nodes (internal/node): the same protocols as real HTTP
//     services.
//   - Cloud construction (internal/landmark): landmark-based clustering of
//     edge caches into clouds.
//
// # Quick start
//
//	cloud, err := cachecloud.NewCloud(cachecloud.CloudConfig{
//		NumRings: 5, IntraGen: 1000, FineGrained: true,
//	}, cachecloud.CacheNames(10), nil)
//	if err != nil { ... }
//	res, _ := cloud.Lookup("http://example.org/scores", now)
//	// fetch from res.Holders or the origin, then:
//	cloud.RegisterHolder("http://example.org/scores", "cache-03")
//
// See examples/ for runnable programs and DESIGN.md for the full system
// inventory.
//
// # What the facade exports
//
// A name is exported here only if a program, example, test or document in
// this repository uses it, or if it is a type that a kept name exposes: a
// parameter or result of a facade function or of a method of a kept type,
// or the type of a kept type's field. A constant or function without a use
// goes. TestFacadeCensus pins the list and checks the uses.
package cachecloud

import (
	"io"

	"cachecloud/internal/cache"
	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/edgenet"
	"cachecloud/internal/experiments"
	"cachecloud/internal/landmark"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/node"
	"cachecloud/internal/obs"
	"cachecloud/internal/origin"
	"cachecloud/internal/placement"
	"cachecloud/internal/ring"
	"cachecloud/internal/sim"
	"cachecloud/internal/trace"
)

// Core document and cloud types.
type (
	// Document is a dynamic web document (URL, size, version).
	Document = document.Document
	// Version is a document revision number.
	Version = document.Version
	// Copy is a cached replica of a document.
	Copy = document.Copy

	// Cloud is a cache cloud: caches, beacon rings, lookup records.
	Cloud = core.Cloud
	// CloudConfig parameterises NewCloud.
	CloudConfig = core.Config
	// LookupResult is a beacon point's answer to a lookup.
	LookupResult = core.LookupResult
	// UpdateResult summarises one update propagation.
	UpdateResult = core.UpdateResult

	// EdgeCache is a byte-budgeted LRU document store with access
	// monitoring.
	EdgeCache = cache.Cache

	// OriginServer is the authoritative document store that serves group
	// misses and publishes updates, one message per cloud.
	OriginServer = origin.Server

	// Ring is one beacon ring (dynamic intra-ring hashing).
	Ring = ring.Ring
	// RingConfig parameterises a beacon ring.
	RingConfig = ring.Config
	// RingMember is a beacon point joining a ring.
	RingMember = ring.Member
	// SubRange is an inclusive IrH interval owned by a beacon point.
	SubRange = ring.SubRange
)

// Placement policies.
type (
	// PlacementPolicy decides whether a cache stores a retrieved copy.
	PlacementPolicy = placement.Policy
	// PlacementContext carries the signals a policy consults.
	PlacementContext = placement.Context
	// AdHocPlacement stores at every requesting cache.
	AdHocPlacement = placement.AdHoc
	// BeaconPointPlacement stores only at the beacon point.
	BeaconPointPlacement = placement.BeaconPoint
	// UtilityPlacement is the paper's utility-based scheme.
	UtilityPlacement = placement.Utility
	// UtilityWeights are the four component weights.
	UtilityWeights = placement.Weights
	// AdaptiveUtilityPlacement is the feedback-tuned utility scheme (the
	// paper's future-work extension).
	AdaptiveUtilityPlacement = placement.AdaptiveUtility
	// PlacementObservation is one feedback period's system measurement.
	PlacementObservation = placement.Observation

	// ReplacementKind selects an edge cache's replacement policy.
	ReplacementKind = cache.ReplacementKind
)

// ReplaceGreedyDualSize is the edge-cache replacement policy that evicts
// by the GreedyDual-Size H value.
const ReplaceGreedyDualSize = cache.GreedyDualSize

// Workloads and simulation.
type (
	// Trace is a document catalog plus a request/update event stream.
	Trace = trace.Trace
	// TraceEvent is one trace record.
	TraceEvent = trace.Event
	// ZipfTraceConfig parameterises the synthetic Zipf dataset.
	ZipfTraceConfig = trace.ZipfConfig
	// SydneyTraceConfig parameterises the Sydney-like dataset.
	SydneyTraceConfig = trace.SydneyConfig

	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimResult carries a run's metrics.
	SimResult = sim.Result
	// Architecture selects the cooperation scheme under simulation.
	Architecture = sim.Architecture

	// LoadDistribution summarises per-beacon loads (CoV, max/mean).
	LoadDistribution = loadstats.Distribution
	// LatencyHistogram records client latencies with percentile queries.
	LatencyHistogram = obs.Histogram
	// LoadKind distinguishes lookup load from update-propagation load.
	LoadKind = loadstats.Kind
)

// LookupLoad is the beacon load kind of a document lookup handled by a
// beacon point.
const LookupLoad = loadstats.Lookup

// Multi-cloud edge networks.
type (
	// EdgeNetwork is several cache clouds sharing one origin server.
	EdgeNetwork = edgenet.Network
	// EdgeNetworkConfig parameterises network construction and runs.
	EdgeNetworkConfig = edgenet.Config
	// EdgeNetworkResult carries a network run's metrics.
	EdgeNetworkResult = edgenet.Result
)

// Live cluster types.
type (
	// CacheNode is a live HTTP edge-cache node.
	CacheNode = node.CacheNode
	// OriginNode is the live HTTP origin server.
	OriginNode = node.OriginNode
	// ClusterConfig bootstraps a live cluster.
	ClusterConfig = node.ClusterConfig
	// LocalCluster is an in-process cluster for demos and tests.
	LocalCluster = node.LocalCluster
	// ClusterClient is a failover-aware client for a live cluster.
	ClusterClient = node.Client
	// ReplayResult summarises a trace replay against a live cluster.
	ReplayResult = node.ReplayResult
	// ReplayOptions tunes ReplayTrace.
	ReplayOptions = node.ReplayOptions
)

// Simulation architectures.
const (
	// StaticHashing assigns beacon points by a static random hash.
	StaticHashing = sim.StaticHashing
	// DynamicHashing is the paper's cache cloud with beacon rings.
	DynamicHashing = sim.DynamicHashing
)

// NewCloud creates a cache cloud over the given cache IDs. capabilities
// maps cache ID to its relative power (nil means all equal).
func NewCloud(cfg CloudConfig, cacheIDs []string, capabilities map[string]float64) (*Cloud, error) {
	return core.New(cfg, cacheIDs, capabilities)
}

// NewOriginServer creates an origin server over a document catalog.
func NewOriginServer(docs []Document) *OriginServer { return origin.New(docs) }

// NewRing creates one beacon ring.
func NewRing(cfg RingConfig, members []RingMember) (*Ring, error) { return ring.New(cfg, members) }

// NewUtilityPlacement builds the utility-based placement policy; the
// paper's experiments use threshold 0.5 and equal weights over the enabled
// components (see EqualWeights).
func NewUtilityPlacement(w UtilityWeights, threshold float64) (*UtilityPlacement, error) {
	return placement.NewUtility(w, threshold)
}

// EqualWeights returns weights of 1/n over the enabled utility components.
func EqualWeights(cmc, afc, dac, dscc bool) UtilityWeights {
	return placement.EqualOn(cmc, afc, dac, dscc)
}

// GenerateZipfTrace produces the paper's synthetic Zipf dataset.
func GenerateZipfTrace(cfg ZipfTraceConfig) *Trace { return trace.GenerateZipf(cfg) }

// GenerateSydneyTrace produces the Sydney-like dataset that stands in for
// the IBM 2000 Olympics trace.
func GenerateSydneyTrace(cfg SydneyTraceConfig) *Trace { return trace.GenerateSydney(cfg) }

// CacheNames returns canonical cache IDs cache-00 … cache-(n-1).
func CacheNames(n int) []string { return trace.CacheNames(n) }

// Simulate runs a trace through the simulator.
func Simulate(cfg SimConfig, tr *Trace) (*SimResult, error) { return sim.Run(cfg, tr) }

// RunExperiment executes one of the paper's evaluation figures by name
// ("fig3" … "fig9") at the given scale (1 = paper-sized) and writes the
// formatted series to w.
func RunExperiment(name string, scale float64, seed int64, w io.Writer) error {
	return experiments.Run(name, scale, seed, w)
}

// ExperimentNames lists the runnable experiment identifiers.
func ExperimentNames() []string { return experiments.Names() }

// StartLocalCluster boots a complete live cluster (cache nodes + origin)
// on loopback HTTP servers.
func StartLocalCluster(nodeNames []string, ringSize int, docs []Document, opts ClusterConfig) (*LocalCluster, error) {
	return node.StartLocalCluster(nodeNames, ringSize, docs, opts)
}

// NewClusterClient builds a failover-aware client for a live cluster,
// pinned to a preferred (nearest) node.
func NewClusterClient(cfg ClusterConfig, preferred string) (*ClusterClient, error) {
	return node.NewClient(cfg, preferred)
}

// ReplayTrace drives a simulator trace through a live cluster over HTTP.
func ReplayTrace(cfg ClusterConfig, tr *Trace, opts ReplayOptions) (*ReplayResult, error) {
	return node.Replay(cfg, tr, opts)
}

// NewAdaptiveUtilityPlacement builds the feedback-tuned utility policy;
// rate is the relative weight adjustment per feedback period.
func NewAdaptiveUtilityPlacement(start UtilityWeights, threshold, rate float64) (*AdaptiveUtilityPlacement, error) {
	return placement.NewAdaptiveUtility(start, threshold, rate)
}

// NewEdgeCacheWithReplacement creates an edge cache with an explicit
// replacement policy.
func NewEdgeCacheWithReplacement(id string, capacity int64, kind ReplacementKind) *EdgeCache {
	return cache.NewWithReplacement(id, capacity, kind)
}

// BuildEdgeNetwork assembles a multi-cloud edge network from explicit
// cloud memberships. The origin's catalog comes with the trace given to
// Run.
func BuildEdgeNetwork(memberships [][]string, cfg EdgeNetworkConfig) (*EdgeNetwork, error) {
	return edgenet.Build(memberships, cfg)
}

// BuildEdgeNetworkFromTopology clusters caches into clouds with the
// landmark technique and builds the network over the result.
func BuildEdgeNetworkFromTopology(nodes []landmark.Node, lmCfg landmark.Config, cfg EdgeNetworkConfig) (*EdgeNetwork, []landmark.Cloud, error) {
	return edgenet.BuildFromTopology(nodes, lmCfg, cfg)
}
