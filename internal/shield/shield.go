// Package shield is the counting model of the two-tier cache-cloud fabric: a
// shield tier of caches between the edge clouds and the origin. Cloud misses
// resolve cloud → shield → origin, the origin sends exactly one update per
// shield holding a document, and each shield fans exactly one update out per
// subscribed cloud — collapsing the origin's per-publish message count from
// O(clouds) to O(shields). Purges are scoped: a global-edge purge evicts the
// document from every shield and every cloud, a per-cloud purge evicts one
// cloud's copy and cancels its subscription while the shield tier keeps
// serving everyone else.
//
// The shield tier reuses the beacon-ring machinery recursively: shields form
// their own ring (internal/ring) whose intra-ring hash range is keyed by cloud
// IDs, so each cloud has a well-defined owning shield.
//
// Tier keeps who holds what and counts the messages and bytes that cross a
// tier boundary; it is the engine of the shieldsweep experiment's multi-cloud
// grid, which the live layer cannot run (node.ShieldNode routes one cloud per
// cluster). It has no failure semantics. No shield is ever down, so a cloud's
// owning shield never changes and every publish reaches every holder: every
// copy is at the origin's version, and the model keeps no versions. Failover,
// degraded fetches, anti-entropy, purge generations and the staleness hint
// exist once, in node.ShieldNode, where simnet checks the staleness sandwich
// on every /sfetch exchange.
package shield

import (
	"errors"
	"fmt"
	"sort"

	"cachecloud/internal/document"
	"cachecloud/internal/ring"
)

var (
	// ErrBadConfig is returned for invalid tier configurations.
	ErrBadConfig = errors.New("shield: invalid configuration")
	// ErrUnknownShield is returned when a cloud has no owning shield: the
	// fabric is single-tier.
	ErrUnknownShield = errors.New("shield: unknown shield")
)

// docSize is the payload bytes of one document transfer.
const docSize = 1000

// Config parameterises a shield tier.
type Config struct {
	// Shields is the shield-cache count. 0 builds a single-tier fabric
	// (every cloud talks straight to the origin) — the baseline the
	// shieldsweep experiment compares against.
	Shields int
	// IntraGen is the shield ring's intra-ring hash generator over which
	// cloud IDs are hashed (default 64).
	IntraGen int
}

// shieldState is one shield cache: the URLs it holds and, per URL, the
// clouds subscribed for update pushes.
type shieldState struct {
	docs map[string]bool
	subs map[string]map[string]bool
}

// Counters account every message and byte crossing a tier boundary.
type Counters struct {
	// ShieldHits counts cloud misses served from a shield's copy without an
	// origin round trip.
	ShieldHits int64
	// OriginFetches counts fetches the origin answers: shield misses behind
	// the tier, every cloud miss in the single-tier baseline.
	OriginFetches int64
	// OriginUpdates counts origin → shield update messages (single-tier:
	// origin → cloud). This is the series the shieldsweep experiment
	// shows dropping from O(clouds) to O(shields).
	OriginUpdates int64
	// ShieldUpdates counts shield → cloud update fan-out messages.
	ShieldUpdates int64
	// OriginBytes counts payload bytes served by the origin.
	OriginBytes int64
	// PurgeMessages counts purge control messages at either tier.
	PurgeMessages int64
}

// Tier is the two-tier fabric model. It is not safe for concurrent use: like
// the simulators it feeds, it is driven single-threaded from a seeded
// schedule so runs are reproducible. Its maps are walked in whatever order
// Go gives: no count depends on the order shields and clouds are visited.
type Tier struct {
	intraGen int
	ring     *ring.Ring // nil in single-tier mode
	shields  map[string]*shieldState
	// clouds maps cloud ID → the URLs it holds.
	clouds map[string]map[string]bool

	// Counters are the tier's message and byte books.
	Counters Counters
}

// New builds a shield tier with cfg.Shields shields named s0, s1, ….
// Shields = 0 builds the single-tier baseline fabric.
func New(cfg Config) (*Tier, error) {
	if cfg.IntraGen == 0 {
		cfg.IntraGen = 64
	}
	if cfg.Shields < 0 {
		return nil, fmt.Errorf("%w: %d shields", ErrBadConfig, cfg.Shields)
	}
	t := &Tier{
		intraGen: cfg.IntraGen,
		shields:  make(map[string]*shieldState),
		clouds:   make(map[string]map[string]bool),
	}
	if cfg.Shields == 0 {
		return t, nil
	}
	if cfg.IntraGen < cfg.Shields {
		return nil, fmt.Errorf("%w: IntraGen %d < %d shields", ErrBadConfig, cfg.IntraGen, cfg.Shields)
	}
	members := make([]ring.Member, cfg.Shields)
	for i := range members {
		id := fmt.Sprintf("s%d", i)
		members[i] = ring.Member{ID: id, Capability: 1}
		t.shields[id] = &shieldState{
			docs: make(map[string]bool),
			subs: make(map[string]map[string]bool),
		}
	}
	rg, err := ring.New(ring.Config{IntraGen: cfg.IntraGen}, members)
	if err != nil {
		return nil, err
	}
	t.ring = rg
	return t, nil
}

// ShieldFor resolves the shield owning a cloud ID — the recursive use of
// the beacon-ring machinery: the cloud ID hashes into the shield ring's
// intra-ring range exactly as a URL hashes into a beacon ring.
func (t *Tier) ShieldFor(cloudID string) (string, error) {
	if t.ring == nil {
		return "", fmt.Errorf("%w: single-tier fabric", ErrUnknownShield)
	}
	return t.ring.BeaconFor(document.HashURL(cloudID).IrH(t.intraGen))
}

// owner returns a cloud's owning shield. Behind the tier it is never nil:
// the ring New builds covers every intra-ring hash value.
func (t *Tier) owner(cloudID string) *shieldState {
	id, _ := t.ShieldFor(cloudID)
	return t.shields[id]
}

func (t *Tier) cloud(cloudID string) map[string]bool {
	cl, ok := t.clouds[cloudID]
	if !ok {
		cl = make(map[string]bool)
		t.clouds[cloudID] = cl
	}
	return cl
}

// CloudHolds reports whether a cloud holds a copy of a URL.
func (t *Tier) CloudHolds(url, cloudID string) bool { return t.clouds[cloudID][url] }

// Fetch resolves a cloud-tier miss for a URL through the shield tier: the
// cloud's owning shield serves from its copy or fetches the origin, and
// subscribes the cloud for update pushes. It reports whether the shield
// served from its own copy.
func (t *Tier) Fetch(url, cloudID string) (shieldHit bool) {
	t.cloud(cloudID)[url] = true
	if t.ring == nil { // single-tier baseline: every miss is an origin fetch
		t.Counters.OriginFetches++
		t.Counters.OriginBytes += docSize
		return false
	}
	s := t.owner(cloudID)
	hit := s.docs[url]
	if hit {
		t.Counters.ShieldHits++
	} else {
		t.Counters.OriginFetches++
		t.Counters.OriginBytes += docSize
		s.docs[url] = true
	}
	subs, ok := s.subs[url]
	if !ok {
		subs = make(map[string]bool)
		s.subs[url] = subs
	}
	subs[cloudID] = true
	return hit
}

// PublishReport accounts one publish's message flow.
type PublishReport struct {
	// OriginMessages is origin → shield messages (single-tier:
	// origin → cloud): exactly one per shield holding the document.
	OriginMessages int64
	// ShieldMessages is shield → cloud fan-out messages: exactly one per
	// subscription at a notified shield.
	ShieldMessages int64
	// CloudsRefreshed counts fan-out messages that refreshed a held copy;
	// SubsPruned counts ones that found the cloud no longer holding and
	// cancelled the subscription. CloudsRefreshed + SubsPruned ==
	// ShieldMessages.
	CloudsRefreshed int64
	SubsPruned      int64
}

// Publish writes a new version at the origin and runs the two-tier
// invalidation protocol: one update per shield holding the document, each
// fanning one update per subscribed cloud. A fan-out message to a cloud that
// no longer holds the copy prunes the subscription instead of resurrecting
// the document — deliveries refresh, they never store.
func (t *Tier) Publish(url string) PublishReport {
	var rep PublishReport
	if t.ring == nil { // single-tier: one origin message per holding cloud
		for _, held := range t.clouds {
			if held[url] {
				t.Counters.OriginUpdates++
				t.Counters.OriginBytes += docSize
				rep.OriginMessages++
				rep.CloudsRefreshed++
			}
		}
		return rep
	}
	for _, s := range t.shields {
		if !s.docs[url] {
			continue
		}
		t.Counters.OriginUpdates++
		t.Counters.OriginBytes += docSize
		rep.OriginMessages++
		for cid := range s.subs[url] {
			t.Counters.ShieldUpdates++
			rep.ShieldMessages++
			if t.clouds[cid][url] {
				rep.CloudsRefreshed++
				continue
			}
			delete(s.subs[url], cid)
			rep.SubsPruned++
		}
		if len(s.subs[url]) == 0 {
			delete(s.subs, url)
		}
	}
	return rep
}

// PurgeReport accounts one purge's reach: the copies evicted at each tier.
type PurgeReport struct {
	Shields, Clouds int
}

// PurgeGlobal evicts a document from the whole edge: every shield drops its
// copy and pushes a purge to each subscribed cloud; in the single-tier
// baseline the origin purges every holding cloud itself.
func (t *Tier) PurgeGlobal(url string) PurgeReport {
	var rep PurgeReport
	if t.ring == nil {
		for _, held := range t.clouds {
			if held[url] {
				t.Counters.PurgeMessages++
				delete(held, url)
				rep.Clouds++
			}
		}
		return rep
	}
	for _, s := range t.shields {
		if s.docs[url] {
			t.Counters.PurgeMessages++ // origin → shield
			delete(s.docs, url)
			rep.Shields++
		}
		for cid := range s.subs[url] {
			t.Counters.PurgeMessages++ // shield → cloud
			if held := t.clouds[cid]; held[url] {
				delete(held, url)
				rep.Clouds++
			}
		}
		delete(s.subs, url)
	}
	return rep
}

// PurgeCloud evicts one cloud's copy and cancels its subscriptions — the
// shield tier keeps its copy and keeps serving every other cloud.
func (t *Tier) PurgeCloud(url, cloudID string) PurgeReport {
	var rep PurgeReport
	if held := t.clouds[cloudID]; held[url] {
		t.Counters.PurgeMessages++
		delete(held, url)
		rep.Clouds++
	}
	for _, s := range t.shields {
		if !s.subs[url][cloudID] {
			continue
		}
		t.Counters.PurgeMessages++
		delete(s.subs[url], cloudID)
		if len(s.subs[url]) == 0 {
			delete(s.subs, url)
		}
	}
	return rep
}

// CheckSubscribed verifies the structure that keeps every copy fresh behind
// the tier: a cloud holding a URL is subscribed for it at its owning shield,
// and that shield holds the URL. Every publish therefore reaches every copy.
// The single-tier baseline has nothing to check.
func (t *Tier) CheckSubscribed() error {
	if t.ring == nil {
		return nil
	}
	ids := make([]string, 0, len(t.clouds))
	for id := range t.clouds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, cid := range ids {
		urls := make([]string, 0, len(t.clouds[cid]))
		for url := range t.clouds[cid] {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		owner, _ := t.ShieldFor(cid)
		s := t.shields[owner]
		for _, url := range urls {
			if !s.docs[url] {
				return fmt.Errorf("shield: cloud %s holds %s, which its shield %s does not", cid, url, owner)
			}
			if !s.subs[url][cid] {
				return fmt.Errorf("shield: cloud %s holds %s unsubscribed at its shield %s", cid, url, owner)
			}
		}
	}
	return nil
}
