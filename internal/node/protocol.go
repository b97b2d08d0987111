// Package node implements the cache cloud protocols as real networked
// services over net/http: edge-cache nodes that serve client requests,
// perform beacon-point duties for their intra-ring hash sub-ranges, and an
// origin node that publishes updates and periodically runs the sub-range
// determination process ("any beacon point within the beacon ring may
// execute this process" — here the origin does, and informs all caches and
// itself of the new assignments, exactly as Section 2.3 describes).
//
// The wire protocol is JSON over HTTP:
//
//	cache node
//	  GET  /doc?url=U          client entry point: serve, cooperate, place
//	  GET  /lookup?url=U       beacon duty: holder list + version; with
//	       &holder=N&seq=S     the requester is listed as a holder in the
//	       &drop=U1&drop=U2    same exchange and its pending drops applied
//	  POST /deregister         beacon duty: drop a holder from a batch of URLs
//	  GET  /fetch?url=U        peer-to-peer copy transfer
//	  POST /update             beacon duty: receive origin update, fan out
//	  POST /apply              holder: apply a pushed update
//	  POST /purge              beacon duty: scoped invalidation, broadcast
//	  POST /drop               remove every trace of a purged document
//	  POST /subranges          install a new sub-range assignment
//	  GET  /subranges          this node's view of the layout
//	  POST /records/import     receive migrated lookup records
//	  POST /records/replica    receive a ring sibling's record replicas
//	  POST /replicate          push owned records to the ring sibling
//	  POST /reconcile          beacon duty: a holder's anti-entropy report
//	  POST /membership         receive the origin's list of dead peers
//	  POST /loads/collect      report and reset cycle load counters
//	  GET  /healthz            liveness probe
//	  GET  /stats              node statistics
//	  GET  /metrics            metrics registry, Prometheus text format
//
//	origin node
//	  GET  /fetch?url=U        group-miss fetch
//	  GET  /versions           catalog versions and purge generations
//	  POST /publish            apply an update and push it to beacons
//	                           (or to the shields holding a copy)
//	  POST /purge              global or cloud-scoped invalidation
//	  POST /rebalance          run one sub-range determination cycle
//	  POST /replicate          ask every beacon to replicate its records
//	  POST /repair             probe nodes, drop the dead from the layout
//	  POST /heartbeat          a cache node's liveness beat
//	  GET  /stats              origin statistics
//	  GET  /metrics            metrics registry, Prometheus text format
//
//	shield node
//	  GET  /sfetch?url=U       a cloud's miss: serve a copy at least as
//	       &cloud=C&v=V        fresh as V, subscribing cloud C
//	  POST /supdate            origin update: refresh, fan out to clouds
//	  POST /spurge             global or cloud-scoped purge, forwarded
//	  POST /subranges          install the cloud's beacon assignment
//	  GET  /healthz            liveness probe
//	  GET  /stats              shield statistics
//	  GET  /metrics            metrics registry, Prometheus text format
//
// DESIGN.md, "Holder-list maintenance", has the message sequence of a
// cooperative miss and the rules that keep holder lists safe.
package node

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cachecloud/internal/admit"
	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/obs"
	"cachecloud/internal/tenant"
)

// DeadlineHeader carries a request's remaining deadline budget in
// milliseconds. The transport stamps it from the caller's context on
// every outbound call and handlers derive their context from it, so a
// client deadline propagates hop by hop and queue waiters whose caller
// already gave up stop consuming slots.
const DeadlineHeader = "X-Cachecloud-Deadline-Ms"

// RetryAfterMsHeader carries a sub-second Retry-After hint on 429 shed
// replies, alongside the standard whole-second Retry-After header.
const RetryAfterMsHeader = "X-Cachecloud-Retry-After-Ms"

// TenantHeader carries the requesting tenant's ID on client-facing
// endpoints. The transport stamps it from the caller's context (see
// WithTenant) and handlers fold it into the document key, so every
// tenant's copies, lookup records, and update fan-outs live in a
// disjoint key space. Absent or empty means the default tenant.
const TenantHeader = "X-Cachecloud-Tenant"

// Subrange is one beacon point's inclusive IrH interval on the wire.
type Subrange struct {
	Node string `json:"node"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
}

// ClusterConfig is the static bootstrap configuration every node receives.
// Each field's comment states its domain, which check enforces for every
// node kind.
type ClusterConfig struct {
	// IntraGen is the intra-ring hash generator: at most 65,536, and at
	// least the size of every ring and of Shields.
	IntraGen int `json:"intraGen"`
	// Rings lists the beacon-point node names of each ring in position
	// order; initial sub-ranges divide the range equally. At least one
	// ring, none empty; every cache is in exactly one ring and has an
	// Addrs entry. A name is 1–64 bytes of [A-Za-z0-9._-], not "." or "..".
	Rings [][]string `json:"rings"`
	// Addrs maps each ring member's name, and nothing else, to its base
	// URL (http or https, with a host).
	Addrs map[string]string `json:"addrs"`
	// OriginAddr is the origin node's base URL, as in Addrs.
	OriginAddr string `json:"originAddr"`
	// CapacityBytes is each cache's byte budget (0 = unlimited; ≥ 0).
	CapacityBytes int64 `json:"capacityBytes"`
	// UtilityPlacement selects the utility-based placement policy for the
	// cache nodes (ad hoc placement otherwise).
	UtilityPlacement bool `json:"utilityPlacement"`
	// MaxInflight caps the total weighted work units a node admits
	// concurrently across the three work classes: 0 selects the default,
	// 64; any other value below a miss's weight, which no miss would fit,
	// is refused. It also bounds the adaptive origin-fetch limiter's
	// ceiling at MaxInflight/4.
	MaxInflight int `json:"maxInflight,omitempty"`
	// MissQueue caps queued miss-class (origin fetch) waiters; arrivals
	// past the cap are shed immediately (0 selects the default, 32; ≥ 0).
	MissQueue int `json:"missQueue,omitempty"`
	// StoreDir, when non-empty, is the directory root for the durable
	// cache tier: each node persists its admitted documents into
	// StoreDir/<node-name> and boots warm from it after a restart
	// (replay + beacon revalidation instead of origin refetch). Empty
	// keeps nodes memory-only.
	StoreDir string `json:"storeDir,omitempty"`
	// Fsync selects the durable tier's flush policy: "rotate" (default),
	// "always", or "never" (durable.ParseFsync); any other value is
	// refused. Ignored when StoreDir is empty.
	Fsync string `json:"fsync,omitempty"`
	// Shields lists the shield-tier cache names, in no particular order
	// (routing sorts them). Empty runs the classic single-tier layout:
	// cache misses and origin updates go straight between the cloud and
	// the origin. Non-empty interposes the shield tier: cloud misses
	// resolve cloud → shield → origin and the origin fans one update per
	// shield instead of one per cloud. Names as in Rings, none twice or a
	// cache's, each with a ShieldAddrs entry.
	Shields []string `json:"shields,omitempty"`
	// ShieldAddrs maps each shield's name, and nothing else, to its base
	// URL, as in Addrs.
	ShieldAddrs map[string]string `json:"shieldAddrs,omitempty"`
	// Tenants, when non-empty, turns on multi-tenant admission and
	// residency quotas: each entry maps a tenant ID to its weighted fair
	// share of MaxInflight and its resident-byte cap. Tenants absent from
	// the map are admitted within leftover capacity and store without a
	// byte cap; the default (empty-ID) tenant is always uncapped. Each
	// entry is one tenant.Registry.Set accepts.
	Tenants map[string]tenant.Quota `json:"tenants,omitempty"`
	// Clock is the time source nodes built from this config run on. Nil
	// selects the wall clock; the deterministic simulation harness
	// injects a virtual clock here. Never serialised.
	Clock Clock `json:"-"`
	// Tracer, when non-nil, receives protocol events from nodes built
	// from this config, durable-store recovery events during construction
	// included. Never serialised.
	Tracer *obs.Tracer `json:"-"`
}

// LoadClusterConfig reads a cluster file strictly: a field ClusterConfig
// does not have is refused, not ignored. It does not check the domains: a
// command may overlay its flags first, and the node it builds checks.
func LoadClusterConfig(path string) (ClusterConfig, error) {
	var cfg ClusterConfig
	f, err := os.Open(path)
	if err != nil {
		return cfg, fmt.Errorf("read cluster config: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("parse cluster config: %w", err)
	}
	return cfg, nil
}

// maxIntraGen bounds IntraGen: the origin keeps a load counter of 8 bytes
// per hash value for each beacon point from boot on, and a cache one for
// its ring from its first beacon operation.
const maxIntraGen = 1 << 16

// check returns the first field of c outside its domain, naming the field.
func (c ClusterConfig) check() error {
	if c.IntraGen <= 0 || c.IntraGen > maxIntraGen {
		return fmt.Errorf("node: IntraGen must be positive and at most %d, not %d", maxIntraGen, c.IntraGen)
	}
	if len(c.Rings) == 0 {
		return fmt.Errorf("node: Rings lists no ring")
	}
	for r, names := range c.Rings {
		if len(names) == 0 || len(names) > c.IntraGen {
			return fmt.Errorf("node: Rings: ring %d has %d members, not 1 to IntraGen (%d)", r, len(names), c.IntraGen)
		}
	}
	if len(c.Shields) > c.IntraGen {
		return fmt.Errorf("node: Shields lists %d shields, more than IntraGen (%d)", len(c.Shields), c.IntraGen)
	}
	listedIn := make(map[string]string) // each cache's and shield's name → "Rings" or "Shields"
	for _, t := range []struct {
		list, addrsField string
		names            []string
		addrs            map[string]string
	}{{"Rings", "Addrs", slices.Concat(c.Rings...), c.Addrs}, {"Shields", "ShieldAddrs", c.Shields, c.ShieldAddrs}} {
		for _, name := range t.names {
			if _, ok := t.addrs[name]; !ok || !validName(name) || listedIn[name] != "" {
				return fmt.Errorf("node: %s: %q is listed twice, is not a valid name or has no %s entry", t.list, name, t.addrsField)
			}
			listedIn[name] = t.list
		}
		for _, name := range sortedKeys(t.addrs) {
			if listedIn[name] != t.list {
				return fmt.Errorf("node: %s: %q is not in %s", t.addrsField, name, t.list)
			}
			if !validAddr(t.addrs[name]) {
				return fmt.Errorf("node: %s: %q is not an http(s) base URL: %q", t.addrsField, name, t.addrs[name])
			}
		}
	}
	if !validAddr(c.OriginAddr) {
		return fmt.Errorf("node: OriginAddr %q is not an http(s) base URL", c.OriginAddr)
	}
	if c.CapacityBytes < 0 {
		return fmt.Errorf("node: CapacityBytes must not be negative, not %d", c.CapacityBytes)
	}
	if w := admit.Miss.Weight(); c.MaxInflight != 0 && c.MaxInflight < w {
		return fmt.Errorf("node: MaxInflight %d admits no miss (weight %d): it must be 0 or at least %d", c.MaxInflight, w, w)
	}
	if c.MissQueue < 0 {
		return fmt.Errorf("node: MissQueue must not be negative, not %d", c.MissQueue)
	}
	if _, err := durable.ParseFsync(c.Fsync); err != nil && c.StoreDir != "" {
		return fmt.Errorf("node: Fsync: %w", err)
	}
	reg, _ := tenant.NewRegistry(nil) // an empty registry: no error
	for _, id := range sortedKeys(c.Tenants) {
		if err := reg.Set(id, c.Tenants[id]); err != nil {
			return fmt.Errorf("node: Tenants: %w", err)
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, so that of several fields out of
// their domain every caller of check names the same one.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nameBytes are what a cache's or shield's name is made of: the name is a
// directory under StoreDir and a query-string value.
const nameBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"

// validName reports whether s may name a cache or a shield.
func validName(s string) bool {
	return len(s) > 0 && len(s) <= 64 && s != "." && s != ".." && strings.Trim(s, nameBytes) == ""
}

// validAddr reports whether s is an http or https base URL with a host.
func validAddr(s string) bool {
	u, err := url.Parse(s)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

// Assignments carries the complete sub-range layout of all rings: the wire
// rendering of the origin's beacon rings (layoutOf), never edited by hand.
type Assignments struct {
	Rings [][]Subrange `json:"rings"`
}

// ownerOf resolves the beacon node for a URL under an assignment.
func (a Assignments) ownerOf(url string, intraGen int) (string, error) {
	return a.ownerOfHash(document.HashURL(url), intraGen)
}

// ownerOfHash is ownerOf for a caller that kept the URL's hash.
func (a Assignments) ownerOfHash(h document.Hash, intraGen int) (string, error) {
	if len(a.Rings) == 0 {
		return "", fmt.Errorf("node: empty assignment")
	}
	ringIdx := h.RingIndex(len(a.Rings))
	irh := h.IrH(intraGen)
	for _, s := range a.Rings[ringIdx] {
		if irh >= s.Lo && irh <= s.Hi {
			return s.Node, nil
		}
	}
	return "", fmt.Errorf("node: no beacon covers IrH %d in ring %d", irh, ringIdx)
}

// Owner resolves the beacon node responsible for a URL under this
// assignment (exported for the simulation harness's invariant checks).
func (a Assignments) Owner(url string, intraGen int) (string, error) {
	return a.ownerOf(url, intraGen)
}

// ringOf returns the index of the ring containing the node, or -1.
func (a Assignments) ringOf(nodeName string) int {
	for r, subs := range a.Rings {
		for _, s := range subs {
			if s.Node == nodeName {
				return r
			}
		}
	}
	return -1
}

// LookupResponse answers GET /lookup. The beacon piggybacks its monitored
// cloud-wide lookup and update rates so the requester can evaluate the
// utility function without extra round trips.
type LookupResponse struct {
	Holders    []string         `json:"holders"`
	Version    document.Version `json:"version"`
	LookupRate float64          `json:"lookupRate"`
	UpdateRate float64          `json:"updateRate"`
	// Doc is the beacon's own copy, on a registering lookup that finds the
	// beacon holding the document at Version or newer: the requester serves
	// it as a peer hit instead of fetching it from a holder.
	Doc *document.Document `json:"doc,omitempty"`
}

// DeregisterRequest is the body of POST /deregister: Node no longer holds
// the documents in URLs.
type DeregisterRequest struct {
	Node string `json:"node"`
	// Seq is the sender's sequence number for this message (see
	// record.holders); 0 is an unnumbered request, which always applies.
	Seq  uint64   `json:"seq,omitempty"`
	URLs []string `json:"urls,omitempty"`
}

// FetchResponse answers GET /fetch.
type FetchResponse struct {
	Doc document.Document `json:"doc"`
	// PurgeGen is the origin's purge generation for the URL at serve
	// time. Shields record it so a later /versions comparison can tell a
	// legitimately re-fetched copy from one that missed a global purge.
	PurgeGen int64 `json:"purgeGen,omitempty"`
}

// UpdateRequest is the body of POST /update and /apply. On /apply the
// beacon piggybacks its monitored rates so the holder can re-evaluate
// whether the copy is still worth its consistency-maintenance cost.
type UpdateRequest struct {
	Doc        document.Document `json:"doc"`
	LookupRate float64           `json:"lookupRate,omitempty"`
	UpdateRate float64           `json:"updateRate,omitempty"`
	Replicas   int               `json:"replicas,omitempty"`
}

// UpdateResponse answers POST /update.
type UpdateResponse struct {
	Notified int `json:"notified"`
}

// DocResponse answers the client-facing GET /doc.
type DocResponse struct {
	Doc document.Document `json:"doc"`
	// Source reports where the copy came from: "local", "peer", "origin".
	Source string `json:"source"`
	// Stored reports whether the node kept a copy.
	Stored bool `json:"stored"`
	// FailedOver reports that the document's beacon was unreachable and
	// the lookup was answered by its ring sibling's lazy replica.
	FailedOver bool `json:"failedOver,omitempty"`
	// Degraded reports that no beacon was reachable and the request fell
	// through to a direct origin fetch.
	Degraded bool `json:"degraded,omitempty"`
}

// WireRecord is one lookup record in transit during migration.
type WireRecord struct {
	URL     string           `json:"url"`
	Holders []string         `json:"holders"`
	Version document.Version `json:"version"`
}

// RecordsImport is the body of POST /records/import and /records/replica.
// Reset (replica pushes only) tells the receiver to drop its existing
// replica set first: the payload is a full snapshot of the sender's
// records, so anything not in it is stale and must not be promoted later.
type RecordsImport struct {
	Records []WireRecord `json:"records"`
	Reset   bool         `json:"reset,omitempty"`
	// From names the sending node (replica pushes only); Reset drops the
	// receiver's existing replicas from that sender before importing.
	From string `json:"from,omitempty"`
}

// ReconcileEntry is one held copy a holder reports during the
// anti-entropy reconcile pass.
type ReconcileEntry struct {
	URL     string           `json:"url"`
	Version document.Version `json:"version"`
}

// ReconcileRequest is the body of the beacon POST /reconcile: a holder
// reporting every copy it stores whose beacon duty falls on the target.
type ReconcileRequest struct {
	Node string `json:"node"`
	// Seq numbers the registrations this report makes, so a drop issued
	// before the pass cannot undo them when it arrives late.
	Seq     uint64           `json:"seq,omitempty"`
	Entries []ReconcileEntry `json:"entries"`
}

// ReconcileResult is the beacon's verdict on one reported copy. Keep is
// false when the copy is staler than the version the beacon has already
// fanned out — the holder must drop it. Version is the beacon's record
// version after folding the report in. Owned is false when the beacon no
// longer covers the URL's sub-range (the holder should retry after the
// next assignment install reaches it).
type ReconcileResult struct {
	URL     string           `json:"url"`
	Version document.Version `json:"version"`
	Owned   bool             `json:"owned"`
	Keep    bool             `json:"keep"`
}

// ReconcileResponse answers POST /reconcile. Unreported names documents
// the beacon lists the reporting node for although the report left them
// out; the node answers with drops for those it indeed does not hold.
type ReconcileResponse struct {
	Results    []ReconcileResult `json:"results"`
	Unreported []string          `json:"unreported,omitempty"`
}

// LoadReport answers POST /loads/collect: per-IrH-value loads for the
// node's owned sub-ranges in every ring, reset after reporting.
type LoadReport struct {
	Node   string          `json:"node"`
	Total  int64           `json:"total"`
	PerIrH map[int][]int64 `json:"perIrH"` // ring → dense [intraGen]int64
}

// PublishRequest is the body of the origin's POST /publish.
type PublishRequest struct {
	URL string `json:"url"`
}

// PublishResponse answers POST /publish.
type PublishResponse struct {
	Version  document.Version `json:"version"`
	Notified int              `json:"notified"`
	// ShieldsNotified counts the shields the update reached: one versioned
	// update per reachable shield that may hold the document (0 in the
	// single-tier layout).
	ShieldsNotified int `json:"shieldsNotified,omitempty"`
	// ShieldsSkipped counts the shields the origin sent nothing: each
	// answered an earlier update that it held no copy, and no fetch of the
	// document was served since.
	ShieldsSkipped int `json:"shieldsSkipped,omitempty"`
}

// Shield-tier wire protocol. The shield tier reuses the beacon-ring
// machinery recursively: shields form their own ring whose intra-ring
// hash range is keyed by cloud IDs, so each cloud has an owning shield
// and failover walks the ring order.

// Purge scopes accepted by POST /purge and /spurge.
const (
	// PurgeScopeGlobal evicts the document from every shield and every
	// cloud (a global-edge purge).
	PurgeScopeGlobal = "global"
	// PurgeScopeCloud evicts one cloud's copies and cancels its
	// subscriptions; the shield tier keeps serving everyone else.
	PurgeScopeCloud = "cloud"
)

// ShieldFetchResponse answers a shield's GET /sfetch.
type ShieldFetchResponse struct {
	Doc document.Document `json:"doc"`
	// ShieldHit reports whether the shield served from its own copy
	// without an origin round trip.
	ShieldHit bool `json:"shieldHit,omitempty"`
}

// ShieldUpdateResponse answers a shield's POST /supdate.
type ShieldUpdateResponse struct {
	// Held reports whether the shield held (and refreshed) a copy.
	Held bool `json:"held"`
	// CloudsNotified sums the holder notifications of every cloud beacon
	// this shield fanned the update to.
	CloudsNotified int `json:"cloudsNotified"`
}

// PurgeRequest is the body of the origin's POST /purge, a shield's POST
// /spurge, and a cache node's POST /purge and /drop.
type PurgeRequest struct {
	URL string `json:"url"`
	// Scope is PurgeScopeGlobal or PurgeScopeCloud.
	Scope string `json:"scope"`
	// Cloud names the target cloud for PurgeScopeCloud.
	Cloud string `json:"cloud,omitempty"`
	// Gen is the origin's purge generation for the URL (global purges);
	// shields record it so a missed purge is reconciled after heal.
	Gen int64 `json:"gen,omitempty"`
}

// PurgeResponse answers the purge endpoints.
type PurgeResponse struct {
	// ShieldsNotified counts shields the origin forwarded the purge to.
	ShieldsNotified int `json:"shieldsNotified,omitempty"`
	// Dropped counts edge copies actually evicted downstream.
	Dropped int `json:"dropped"`
}

// VersionsResponse answers the origin's GET /versions: the ground-truth
// document versions and per-URL global purge generations shields resync
// against (the tier-level analogue of /reconcile).
type VersionsResponse struct {
	Versions map[string]document.Version `json:"versions"`
	PurgeGen map[string]int64            `json:"purgeGen,omitempty"`
}

// ShieldStats answers a shield's GET /stats.
type ShieldStats struct {
	Shield        string `json:"shield"`
	HeldDocs      int    `json:"heldDocs"`
	Subscriptions int    `json:"subscriptions"`
	Fetches       int64  `json:"fetches"`
	ShieldHits    int64  `json:"shieldHits"`
	OriginFetches int64  `json:"originFetches"`
	UpdatesIn     int64  `json:"updatesIn"`
	UpdatesFanned int64  `json:"updatesFanned"`
	Purges        int64  `json:"purges"`
	ResyncDrops   int64  `json:"resyncDrops"`
	WarmBoot      bool   `json:"warmBoot,omitempty"`
	WarmRecovered int    `json:"warmRecovered,omitempty"`
	// DurableErrors counts copies and tombstones the durable tier failed to
	// write (the shield keeps serving; durability degrades).
	DurableErrors int64 `json:"durableErrors,omitempty"`
}

// RebalanceResponse answers the origin's POST /rebalance.
type RebalanceResponse struct {
	// Moves counts the blocks of IrH values that changed beacon point.
	Moves int `json:"moves"`
}

// CacheStats answers a cache node's GET /stats.
type CacheStats struct {
	Node        string  `json:"node"`
	StoredDocs  int     `json:"storedDocs"`
	UsedBytes   int64   `json:"usedBytes"`
	LocalHits   int64   `json:"localHits"`
	PeerHits    int64   `json:"peerHits"`
	OriginMiss  int64   `json:"originMiss"`
	BeaconOps   int64   `json:"beaconOps"`
	HitRate     float64 `json:"hitRate"`
	RecordsHeld int     `json:"recordsHeld"` // as HeartbeatRequest's
	// FailedOver counts lookups answered by a ring sibling's lazy replica
	// after the owning beacon was unreachable.
	FailedOver int64 `json:"failedOver"`
	// Degraded counts requests that fell through to a direct origin fetch
	// because no beacon was reachable.
	Degraded int64 `json:"degraded"`
	// DownPeers is the number of peers currently marked dead by the origin.
	DownPeers int `json:"downPeers"`
	// Requests counts client /doc requests accepted for processing.
	// Conservation: Requests == Served + Shed + Failed once the node is
	// quiescent (nothing queued or in flight).
	Requests int64 `json:"requests"`
	// Served counts /doc requests answered with a document.
	Served int64 `json:"served"`
	// Shed counts /doc requests deliberately refused by the overload
	// layer (HTTP 429 + Retry-After) — counted separately from failures.
	Shed int64 `json:"shed"`
	// Failed counts /doc requests that errored (bad gateway, timeout).
	Failed int64 `json:"failed"`
	// OriginFetches counts actual origin wire fetches after coalescing.
	OriginFetches int64 `json:"originFetches"`
	// Coalesced counts misses that joined an in-flight origin fetch
	// instead of issuing their own (singleflight waiters).
	Coalesced int64 `json:"coalesced"`
	// LimitNow is the adaptive origin-fetch concurrency limit right now.
	LimitNow int `json:"limitNow"`
	// WarmBoot reports that this node recovered entries from its durable
	// tier at construction (false = cold boot or memory-only).
	WarmBoot bool `json:"warmBoot,omitempty"`
	// WarmRecovered is how many entries the durable tier replayed into
	// the cache at boot.
	WarmRecovered int `json:"warmRecovered,omitempty"`
	// WarmRevalidated counts recovered copies confirmed fresh by the
	// beacons (kept and re-registered); WarmDropped counts recovered
	// copies the beacons ruled stale (dropped + tombstoned). Revalidation
	// issues zero origin fetches.
	WarmRevalidated int64 `json:"warmRevalidated,omitempty"`
	WarmDropped     int64 `json:"warmDropped,omitempty"`
	// StoreTruncations / StoreCompactions / StoreSegments / StoreBytes
	// summarise the durable tier's log health (all zero when
	// memory-only).
	StoreTruncations int64 `json:"storeTruncations,omitempty"`
	StoreCompactions int64 `json:"storeCompactions,omitempty"`
	StoreSegments    int   `json:"storeSegments,omitempty"`
	StoreBytes       int64 `json:"storeBytes,omitempty"`
	// DurableErrors counts disk-tier mutations that failed (the cache
	// keeps serving; durability degrades).
	DurableErrors int64 `json:"durableErrors,omitempty"`
	// ShieldFetches counts upstream misses resolved through the shield
	// tier; ShieldHits the subset the shield answered from its own copy.
	// ShieldFailover counts fetches served by a non-owner shield after
	// ring-order failover, ShieldDegraded direct-origin fetches taken
	// while every shield was unreachable. All zero in single-tier runs.
	ShieldFetches  int64 `json:"shieldFetches,omitempty"`
	ShieldHits     int64 `json:"shieldHits,omitempty"`
	ShieldFailover int64 `json:"shieldFailover,omitempty"`
	ShieldDegraded int64 `json:"shieldDegraded,omitempty"`
	// Tenants breaks the conservation counters down per tenant when
	// multi-tenant admission is configured. Conservation holds per tenant:
	// Requests == Served + Shed + Failed at quiescence for every entry.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of a cache node's /stats.
type TenantStats struct {
	// Requests/Served/Shed/Failed are the per-tenant conservation
	// counters over client /doc requests.
	Requests int64 `json:"requests"`
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	Failed   int64 `json:"failed"`
	// Share is the tenant's current weighted fair share of MaxInflight.
	Share int `json:"share"`
	// ResidentBytes is the tenant's resident bytes in this node's cache.
	ResidentBytes int64 `json:"residentBytes"`
}

// OriginStats answers the origin node's GET /stats.
type OriginStats struct {
	Documents   int   `json:"documents"`
	Fetches     int64 `json:"fetches"`
	Updates     int64 `json:"updates"`
	BytesServed int64 `json:"bytesServed"`
	Rebalances  int64 `json:"rebalances"`
	// Repairs counts failure-recovery passes that removed at least one node.
	Repairs int64 `json:"repairs"`
	// Heartbeats counts beats received from cache nodes.
	Heartbeats int64 `json:"heartbeats"`
	// NodesDown is the number of nodes currently declared dead.
	NodesDown int `json:"nodesDown"`
	// RecordsLost sums the lookup records reported held by nodes at their
	// last heartbeat before being declared dead.
	RecordsLost int64 `json:"recordsLost"`
	// RecordsRecovered sums the sibling-replica promotions survivors
	// reported while installing repaired assignments.
	RecordsRecovered int64 `json:"recordsRecovered"`
	// Rejoins counts nodes re-admitted after being declared dead.
	Rejoins int64 `json:"rejoins"`
	// FetchInFlight is the number of /fetch requests being served right
	// now; FetchHighWater is the maximum observed concurrently. Under the
	// cache nodes' adaptive origin-fetch limiters the high water stays
	// bounded by the sum of their current limits even during a miss storm.
	FetchInFlight  int64 `json:"fetchInFlight"`
	FetchHighWater int64 `json:"fetchHighWater"`
}

// HeartbeatRequest is the body of the origin's POST /heartbeat: a cache
// node reporting it is alive, together with the cluster-view summary the
// origin uses for failure accounting (RecordsHeld is what would be lost
// if this node crashed right now: its owned lookup records that name a
// holder or a version, the ones its replica push carries).
type HeartbeatRequest struct {
	Node        string `json:"node"`
	Seq         int64  `json:"seq"`
	RecordsHeld int    `json:"recordsHeld"`
	StoredDocs  int    `json:"storedDocs"`
}

// HeartbeatResponse answers POST /heartbeat. Rejoined is set when the
// heartbeat came from a node previously declared dead and the origin has
// re-admitted it (new sub-range assignments follow on /subranges).
type HeartbeatResponse struct {
	Rejoined bool `json:"rejoined"`
}

// MembershipUpdate is the body of the cache-node POST /membership: the
// origin broadcasting which peers are currently considered dead, so nodes
// stop routing lookups and fetches at them during the detection window.
type MembershipUpdate struct {
	Down []string `json:"down"`
}

// SubrangesResponse answers POST /subranges: how many records the node
// handed off to new owners and how many it promoted from sibling replicas
// for ranges it now owns (the crash-recovery count).
type SubrangesResponse struct {
	MigratedOut int `json:"migratedOut"`
	Promoted    int `json:"promoted"`
}

// --- small HTTP helpers shared by both node kinds ---

// queryEscape escapes s for use as a query parameter. Most callers hold the
// document's URL in a variable named url, which hides the package.
func queryEscape(s string) string { return url.QueryEscape(s) }

// queryArg reads a raw query the way url.ParseQuery does, one key at a time
// and without building its map: val is the first value ParseQuery would list
// under key, and rest is the query after that pair, where the next value is
// looked for. A pair holding ';' or a bad escape is skipped, as ParseQuery
// skips it. A value with nothing to unescape is a substring of raw, as
// ParseQuery's is, so reading it allocates nothing.
func queryArg(raw, key string) (val, rest string, ok bool) {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v, raw, true
		}
	}
	return "", "", false
}

// writeDoc writes a /doc reply. The bytes are json.NewEncoder's for the same
// DocResponse, appended without reflection (appendDocReply).
func writeDoc(w http.ResponseWriter, resp DocResponse) {
	buf := getBuf()
	defer putBuf(buf)
	buf.Write(appendDocReply(buf.AvailableBuffer(), resp))
	writeBody(w, http.StatusOK, buf.Bytes())
}

// appendDocReply appends resp as json.Encoder.Encode writes it: the fields in
// declaration order, HTML escaping on, FailedOver and Degraded omitted when
// false, a newline at the end.
func appendDocReply(b []byte, resp DocResponse) []byte {
	b = append(b, `{"doc":{"url":`...)
	b = appendJSONString(b, resp.Doc.URL)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, resp.Doc.Size, 10)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, uint64(resp.Doc.Version), 10)
	b = append(b, `},"source":`...)
	b = appendJSONString(b, resp.Source)
	b = append(b, `,"stored":`...)
	b = strconv.AppendBool(b, resp.Stored)
	if resp.FailedOver {
		b = append(b, `,"failedOver":true`...)
	}
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, "}\n"...)
}

// appendJSONString appends s quoted. A string of printable ASCII that HTML
// escaping leaves alone is copied as it is; any other is json.Marshal's to
// render, so escaping has one implementation.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// writeJSON encodes v before it writes anything, so the reply carries its
// Content-Length and goes out in one Write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = enc.Encode(map[string]string{"error": err.Error()})
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends a JSON reply in one Write. Its two headers are set under
// their canonical keys, as Header().Set would store them, and share one
// allocation.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	vals := []string{"application/json", strconv.Itoa(len(body))}
	h := w.Header()
	h["Content-Type"], h["Content-Length"] = vals[:1:1], vals[1:]
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// readJSON decodes a request body of at most maxRequestBody (16 MB); a longer
// one is refused, and at most maxDrainBytes of what is left of it is read.
func readJSON(r *http.Request, v any) error {
	defer drainClose(r.Body)
	buf := getBuf()
	defer putBuf(buf)
	eof, err := readInto(buf, r.Body, maxRequestBody+1)
	if err != nil {
		return err
	}
	if !eof || buf.Len() > maxRequestBody {
		return fmt.Errorf("request body over %d bytes", maxRequestBody)
	}
	return json.Unmarshal(buf.Bytes(), v)
}
