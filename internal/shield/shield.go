// Package shield implements the two-tier cache-cloud fabric: a shield
// tier of caches between the edge clouds and the origin server. Cloud
// misses resolve cloud → shield → origin, the origin sends exactly one
// versioned update per shield holding a document, and each shield fans
// exactly one update out per subscribed cloud — collapsing the origin's
// per-publish message count from O(clouds) to O(shields). Purges are
// scoped: a global-edge purge evicts the document from every shield and
// every cloud, a per-cloud purge evicts one cloud's copy and cancels its
// subscription while the shield tier keeps serving everyone else.
//
// The shield tier reuses the beacon-ring machinery recursively: shields
// form their own ring (internal/ring) whose intra-ring hash range is keyed
// by cloud IDs, so each cloud has a well-defined owning shield, failover
// walks the ring order, and anti-entropy (Resync) plays the role
// /reconcile plays inside a cloud.
//
// Tier is the deterministic single-threaded model of this fabric: the
// subject of the monotonic-staleness property test and the engine of the
// shieldsweep experiment's multi-cloud grid, which the live layer cannot
// run (node.ShieldNode routes one cloud per cluster). No test compares
// the two; simnet checks node.ShieldNode against the same invariants on
// its own. The model's central invariant — checked by
// CheckStalenessBound — is the two-sided sandwich
//
//	delivered ≤ cloud copy ≤ serving shield ≤ origin
//
// for every document copy a cloud holds: a cloud never serves a version
// newer than its shield's, and never one older than the shield's version
// at the last update delivery. Staleness hints keep the bound true across
// crash/heal/failover interleavings: a fetch carries the cloud's current
// version, and a healed (possibly stale) shield refreshes from the origin
// before serving a version that would move the cloud backwards.
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
	// ErrUnknownShield is returned when an operation names a shield that
	// is not part of the tier.
	ErrUnknownShield = errors.New("shield: unknown shield")
	// ErrShieldDown is returned when an operation needs a live shield.
	ErrShieldDown = errors.New("shield: shield is down")
)

// Config parameterises a shield tier.
type Config struct {
	// Shields is the shield-cache count. 0 builds a single-tier fabric
	// (every cloud talks straight to the origin) — the baseline the
	// shieldsweep experiment compares against.
	Shields int
	// IntraGen is the shield ring's intra-ring hash generator over which
	// cloud IDs are hashed (default 64).
	IntraGen int
	// DocSize models the payload bytes of one document transfer
	// (default 1000).
	DocSize int64
}

func (c Config) withDefaults() Config {
	if c.IntraGen == 0 {
		c.IntraGen = 64
	}
	if c.DocSize == 0 {
		c.DocSize = 1000
	}
	return c
}

// shieldState is one shield cache: its document copies, its per-document
// cloud subscriptions, and the purge generations it has acknowledged.
type shieldState struct {
	id   string
	down bool
	// docs maps URL → the version this shield holds.
	docs map[string]document.Version
	// subs maps URL → the set of cloud IDs subscribed for update pushes.
	subs map[string]map[string]bool
	// purgeSeen maps URL → the origin purge generation this shield has
	// applied; a held copy with a stale generation is dropped at Resync.
	purgeSeen map[string]int64
}

func (s *shieldState) holds(url string) bool {
	_, ok := s.docs[url]
	return ok
}

func (s *shieldState) subscribe(url, cloudID string) {
	m, ok := s.subs[url]
	if !ok {
		m = make(map[string]bool)
		s.subs[url] = m
	}
	m[cloudID] = true
}

// sortedSubs returns the subscribed cloud IDs for a URL in sorted order —
// the deterministic fan-out order.
func (s *shieldState) sortedSubs(url string) []string {
	m := s.subs[url]
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// cloudCopy is one cloud's cached copy of a document.
type cloudCopy struct {
	// version is the copy's document version.
	version document.Version
	// shield is the shield that last served or refreshed this copy
	// ("" when the copy came from a degraded direct-origin fetch while no
	// shield was live).
	shield string
	// delivered is the serving shield's version at the last delivery —
	// the lower end of the staleness bound.
	delivered document.Version
}

// cloudState is the model's view of one edge cloud.
type cloudState struct {
	id     string
	copies map[string]cloudCopy
}

// Counters account every message and byte crossing a tier boundary.
// Exact conservation across them is asserted by the fan-out tests and the
// simnet cross-tier invariant checker.
type Counters struct {
	// Fetches counts cloud-tier misses entering the fabric.
	Fetches int64
	// ShieldHits counts fetches served from a shield's copy without an
	// origin round trip.
	ShieldHits int64
	// OriginFetches counts shield → origin fetches (misses, staleness
	// refreshes, and resync refreshes).
	OriginFetches int64
	// DirectFetches counts degraded cloud → origin fetches taken while no
	// shield was live (single-tier mode counts every fetch here).
	DirectFetches int64
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

// Tier is the deterministic two-tier fabric model. It is not safe for
// concurrent use: like the simulators it feeds, it is driven
// single-threaded from a seeded schedule so runs are reproducible.
type Tier struct {
	cfg     Config
	ring    *ring.Ring // nil in single-tier mode
	order   []string   // sorted shield IDs: failover walk + fan-out order
	pos     map[string]int
	shields map[string]*shieldState
	clouds  map[string]*cloudState

	// origin is the ground-truth version per URL (minted at 1 on first
	// reference) and purgeGen the per-URL global purge generation.
	origin   map[string]document.Version
	purgeGen map[string]int64

	// Counters are the tier's message and byte books.
	Counters Counters
}

// New builds a shield tier with cfg.Shields shields named s0, s1, ….
// Shields = 0 builds the single-tier baseline fabric.
func New(cfg Config) (*Tier, error) {
	cfg = cfg.withDefaults()
	if cfg.Shields < 0 {
		return nil, fmt.Errorf("%w: %d shields", ErrBadConfig, cfg.Shields)
	}
	t := &Tier{
		cfg:      cfg,
		pos:      make(map[string]int),
		shields:  make(map[string]*shieldState),
		clouds:   make(map[string]*cloudState),
		origin:   make(map[string]document.Version),
		purgeGen: make(map[string]int64),
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
		t.order = append(t.order, id)
		t.shields[id] = &shieldState{
			id:        id,
			docs:      make(map[string]document.Version),
			subs:      make(map[string]map[string]bool),
			purgeSeen: make(map[string]int64),
		}
	}
	sort.Strings(t.order)
	for i, id := range t.order {
		t.pos[id] = i
	}
	rg, err := ring.New(ring.Config{IntraGen: cfg.IntraGen}, members)
	if err != nil {
		return nil, err
	}
	t.ring = rg
	return t, nil
}

// ShieldIDs returns the shield IDs in sorted order.
func (t *Tier) ShieldIDs() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// SingleTier reports whether the fabric runs without a shield tier.
func (t *Tier) SingleTier() bool { return t.ring == nil }

// ShieldFor resolves the shield owning a cloud ID — the recursive use of
// the beacon-ring machinery: the cloud ID hashes into the shield ring's
// intra-ring range exactly as a URL hashes into a beacon ring.
func (t *Tier) ShieldFor(cloudID string) (string, error) {
	if t.ring == nil {
		return "", fmt.Errorf("%w: single-tier fabric", ErrUnknownShield)
	}
	return t.ring.BeaconFor(document.HashURL(cloudID).IrH(t.cfg.IntraGen))
}

// routeShield resolves the live shield serving a cloud: the ring owner
// when it is up, else the next live shield in ring order (the same
// sibling-failover discipline beacon rings use). Returns false when no
// shield is live.
func (t *Tier) routeShield(cloudID string) (*shieldState, bool) {
	owner, err := t.ShieldFor(cloudID)
	if err != nil {
		return nil, false
	}
	start := t.pos[owner]
	for i := 0; i < len(t.order); i++ {
		s := t.shields[t.order[(start+i)%len(t.order)]]
		if !s.down {
			return s, true
		}
	}
	return nil, false
}

func (t *Tier) cloud(cloudID string) *cloudState {
	cl, ok := t.clouds[cloudID]
	if !ok {
		cl = &cloudState{id: cloudID, copies: make(map[string]cloudCopy)}
		t.clouds[cloudID] = cl
	}
	return cl
}

// originVersion returns the origin's version for a URL, minting version 1
// on first reference (the model's implicit catalog).
func (t *Tier) originVersion(url string) document.Version {
	v, ok := t.origin[url]
	if !ok {
		v = 1
		t.origin[url] = v
	}
	return v
}

// FetchResult describes how one cloud miss was resolved.
type FetchResult struct {
	// Version is the document version served to the cloud.
	Version document.Version
	// Shield is the shield that served the fetch ("" when degraded).
	Shield string
	// ShieldHit reports whether the shield served from its own copy.
	ShieldHit bool
	// Degraded reports a direct-origin fetch taken with no live shield.
	Degraded bool
}

// Fetch resolves a cloud-tier miss for a URL through the shield tier:
// the cloud's owning shield (with ring-order failover) serves from its
// copy or fetches the origin, subscribes the cloud for update pushes, and
// delivers the version. The fetch carries the cloud's current version as
// a staleness hint: a shield holding something older (it healed after
// missing a publish) refreshes from the origin before serving, so a
// cloud's served version never moves backwards.
func (t *Tier) Fetch(url, cloudID string) FetchResult {
	t.Counters.Fetches++
	cl := t.cloud(cloudID)
	hint := cl.copies[url].version

	if t.ring == nil { // single-tier baseline: every miss is an origin fetch
		t.Counters.DirectFetches++
		t.Counters.OriginBytes += t.cfg.DocSize
		ov := t.originVersion(url)
		cl.copies[url] = cloudCopy{version: ov, delivered: ov}
		return FetchResult{Version: ov, Degraded: true}
	}

	s, ok := t.routeShield(cloudID)
	if !ok { // no live shield: degraded direct-origin fetch, no subscription
		t.Counters.DirectFetches++
		t.Counters.OriginBytes += t.cfg.DocSize
		ov := t.originVersion(url)
		cl.copies[url] = cloudCopy{version: ov, delivered: ov}
		return FetchResult{Version: ov, Degraded: true}
	}

	held, has := s.docs[url]
	hit := has && held >= hint
	if !hit {
		t.Counters.OriginFetches++
		t.Counters.OriginBytes += t.cfg.DocSize
		held = t.originVersion(url)
		s.docs[url] = held
		s.purgeSeen[url] = t.purgeGen[url]
	} else {
		t.Counters.ShieldHits++
	}
	s.subscribe(url, cloudID)
	cl.copies[url] = cloudCopy{version: held, shield: s.id, delivered: held}
	return FetchResult{Version: held, Shield: s.id, ShieldHit: hit}
}

// PublishReport accounts one publish's message flow; the fan-out
// conservation tests assert its books balance exactly.
type PublishReport struct {
	URL     string
	Version document.Version
	// OriginMessages is origin → shield messages (single-tier:
	// origin → cloud): exactly one per live shield holding the document.
	OriginMessages int64
	// ShieldMessages is shield → cloud fan-out messages: exactly one per
	// subscription at a notified shield.
	ShieldMessages int64
	// PerShield maps shield ID → updates received this publish (always 1
	// for a live holding shield, absent otherwise).
	PerShield map[string]int64
	// CloudsRefreshed counts fan-out messages that refreshed a held copy;
	// SubsPruned counts ones that found the cloud no longer holding and
	// cancelled the subscription. CloudsRefreshed + SubsPruned ==
	// ShieldMessages.
	CloudsRefreshed int64
	SubsPruned      int64
}

// Publish writes a new version at the origin and runs the two-tier
// invalidation protocol: one versioned update per live shield holding the
// document, each fanning one update per subscribed cloud. Down shields are
// skipped (Resync reconciles them after heal). A fan-out message to a
// cloud that no longer holds the copy prunes the subscription instead of
// resurrecting the document — deliveries refresh, they never store.
func (t *Tier) Publish(url string) PublishReport {
	v := t.originVersion(url) + 1
	t.origin[url] = v
	rep := PublishReport{URL: url, Version: v, PerShield: make(map[string]int64)}

	if t.ring == nil { // single-tier: one origin message per holding cloud
		for _, cid := range t.sortedCloudIDs() {
			cl := t.clouds[cid]
			c, ok := cl.copies[url]
			if !ok {
				continue
			}
			t.Counters.OriginUpdates++
			t.Counters.OriginBytes += t.cfg.DocSize
			rep.OriginMessages++
			rep.CloudsRefreshed++
			c.version, c.delivered = v, v
			cl.copies[url] = c
		}
		return rep
	}

	for _, sid := range t.order {
		s := t.shields[sid]
		if s.down || !s.holds(url) {
			continue
		}
		t.Counters.OriginUpdates++
		t.Counters.OriginBytes += t.cfg.DocSize
		rep.OriginMessages++
		rep.PerShield[sid]++
		s.docs[url] = v
		refreshed, pruned := t.fanOut(s, url, v)
		rep.ShieldMessages += refreshed + pruned
		rep.CloudsRefreshed += refreshed
		rep.SubsPruned += pruned
	}
	return rep
}

// fanOut pushes a shield's new version to every subscribed cloud in
// sorted order, refreshing held copies and pruning subscriptions of
// clouds that dropped theirs. Returns (refreshed, pruned) message counts.
func (t *Tier) fanOut(s *shieldState, url string, v document.Version) (refreshed, pruned int64) {
	for _, cid := range s.sortedSubs(url) {
		t.Counters.ShieldUpdates++
		cl := t.cloud(cid)
		c, ok := cl.copies[url]
		if !ok {
			delete(s.subs[url], cid)
			pruned++
			continue
		}
		c.version, c.shield, c.delivered = v, s.id, v
		cl.copies[url] = c
		refreshed++
	}
	if len(s.subs[url]) == 0 {
		delete(s.subs, url)
	}
	return refreshed, pruned
}

// PurgeReport accounts one purge's reach.
type PurgeReport struct {
	URL string
	// Shields and Clouds count copies evicted at each tier.
	Shields, Clouds int
	// Messages counts purge control messages sent.
	Messages int64
}

// PurgeGlobal evicts a document from the whole edge: every live shield
// drops its copy and pushes a purge to each subscribed cloud, and the
// origin purges degraded direct-fetch copies it served itself. Down
// shields reconcile the purge at Resync through the purge generation.
func (t *Tier) PurgeGlobal(url string) PurgeReport {
	t.purgeGen[url]++
	gen := t.purgeGen[url]
	rep := PurgeReport{URL: url}

	if t.ring == nil {
		for _, cid := range t.sortedCloudIDs() {
			cl := t.clouds[cid]
			if _, ok := cl.copies[url]; !ok {
				continue
			}
			t.Counters.PurgeMessages++
			rep.Messages++
			delete(cl.copies, url)
			rep.Clouds++
		}
		return rep
	}

	for _, sid := range t.order {
		s := t.shields[sid]
		if s.down {
			continue
		}
		if s.holds(url) {
			t.Counters.PurgeMessages++ // origin → shield
			rep.Messages++
			delete(s.docs, url)
			delete(s.purgeSeen, url)
			rep.Shields++
		} else {
			s.purgeSeen[url] = gen
		}
		for _, cid := range s.sortedSubs(url) {
			t.Counters.PurgeMessages++ // shield → cloud
			rep.Messages++
			cl := t.cloud(cid)
			if _, ok := cl.copies[url]; ok {
				delete(cl.copies, url)
				rep.Clouds++
			}
		}
		delete(s.subs, url)
	}
	// Degraded copies were fetched straight from the origin while no
	// shield was live; no shield has a subscription for them, so the
	// origin purges the clouds it served directly.
	for _, cid := range t.sortedCloudIDs() {
		cl := t.clouds[cid]
		if c, ok := cl.copies[url]; ok && c.shield == "" {
			t.Counters.PurgeMessages++
			rep.Messages++
			delete(cl.copies, url)
			rep.Clouds++
		}
	}
	return rep
}

// PurgeCloud evicts one cloud's copy and cancels its subscriptions — the
// shield tier keeps its copy and keeps serving every other cloud.
func (t *Tier) PurgeCloud(url, cloudID string) PurgeReport {
	rep := PurgeReport{URL: url}
	cl := t.cloud(cloudID)
	if _, ok := cl.copies[url]; ok {
		t.Counters.PurgeMessages++
		rep.Messages++
		delete(cl.copies, url)
		rep.Clouds++
	}
	for _, sid := range t.order {
		s := t.shields[sid]
		if s.down || !s.subs[url][cloudID] {
			continue
		}
		t.Counters.PurgeMessages++
		rep.Messages++
		delete(s.subs[url], cloudID)
		if len(s.subs[url]) == 0 {
			delete(s.subs, url)
		}
	}
	return rep
}

// Crash marks a shield down. Its copies and subscriptions persist — the
// live tier stores them through the durable hook — so a healed shield
// resumes stale and relies on Resync (and fetch staleness hints) to
// catch up.
func (t *Tier) Crash(shieldID string) error {
	s, ok := t.shields[shieldID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownShield, shieldID)
	}
	s.down = true
	return nil
}

// Heal marks a shield live again without resynchronising it.
func (t *Tier) Heal(shieldID string) error {
	s, ok := t.shields[shieldID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownShield, shieldID)
	}
	s.down = false
	return nil
}

// LiveShields returns the number of live shields.
func (t *Tier) LiveShields() int {
	n := 0
	for _, s := range t.shields {
		if !s.down {
			n++
		}
	}
	return n
}

// ResyncReport accounts one anti-entropy pass.
type ResyncReport struct {
	Shield string
	// Refreshed counts copies brought up to the origin version, Purged
	// copies dropped for a missed global purge, Fanned the update
	// messages pushed to subscribed clouds.
	Refreshed, Purged int
	Fanned            int64
}

// Resync runs shield-side anti-entropy against the origin — the tier-level
// analogue of the /reconcile pass inside a cloud. The shield walks its
// held documents in sorted order, applies global purges it missed while
// down (dropping its copy, purging subscribed clouds that still hold the
// purged delivery), refreshes stale copies from the origin, and re-fans
// the deltas to its subscribers. After every live shield has resynced on
// a clean network, the shield tier is exactly origin-fresh — the
// quiescent cross-tier invariant.
func (t *Tier) Resync(shieldID string) (ResyncReport, error) {
	s, ok := t.shields[shieldID]
	if !ok {
		return ResyncReport{}, fmt.Errorf("%w: %q", ErrUnknownShield, shieldID)
	}
	if s.down {
		return ResyncReport{}, fmt.Errorf("%w: %q", ErrShieldDown, shieldID)
	}
	rep := ResyncReport{Shield: shieldID}
	urls := make([]string, 0, len(s.docs))
	for url := range s.docs {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		if t.purgeGen[url] > s.purgeSeen[url] {
			delete(s.docs, url)
			delete(s.purgeSeen, url)
			rep.Purged++
			for _, cid := range s.sortedSubs(url) {
				cl := t.cloud(cid)
				// Only copies this shield delivered predate the purge; a
				// cloud that re-fetched through another shield since holds
				// a legitimate post-purge copy.
				if c, ok := cl.copies[url]; ok && c.shield == s.id {
					t.Counters.PurgeMessages++
					delete(cl.copies, url)
				}
			}
			delete(s.subs, url)
			continue
		}
		if ov := t.originVersion(url); s.docs[url] < ov {
			t.Counters.OriginFetches++
			t.Counters.OriginBytes += t.cfg.DocSize
			s.docs[url] = ov
			rep.Refreshed++
			refreshed, pruned := t.fanOut(s, url, ov)
			rep.Fanned += refreshed + pruned
		}
	}
	return rep, nil
}

// OriginVersion returns the origin's current version for a URL (0 when
// the URL has never been referenced).
func (t *Tier) OriginVersion(url string) document.Version { return t.origin[url] }

// CloudVersion returns the version a cloud currently holds for a URL.
func (t *Tier) CloudVersion(url, cloudID string) (document.Version, bool) {
	cl, ok := t.clouds[cloudID]
	if !ok {
		return 0, false
	}
	c, ok := cl.copies[url]
	return c.version, ok
}

// ShieldVersion returns the version a shield currently holds for a URL.
func (t *Tier) ShieldVersion(url, shieldID string) (document.Version, bool) {
	s, ok := t.shields[shieldID]
	if !ok {
		return 0, false
	}
	v, ok := s.docs[url]
	return v, ok
}

func (t *Tier) sortedCloudIDs() []string {
	out := make([]string, 0, len(t.clouds))
	for id := range t.clouds {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CheckStalenessBound verifies the monotonic staleness bound for every
// copy every cloud holds:
//
//	delivered ≤ copy ≤ serving-shield version ≤ origin version
//
// The property holds after any interleaving of fetches, publishes,
// purges, crashes, heals and resyncs — the shield-tier property test
// drives random schedules and calls this after every step.
func (t *Tier) CheckStalenessBound() error {
	for _, cid := range t.sortedCloudIDs() {
		cl := t.clouds[cid]
		urls := make([]string, 0, len(cl.copies))
		for url := range cl.copies {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		for _, url := range urls {
			c := cl.copies[url]
			ov := t.origin[url]
			if c.version > ov {
				return fmt.Errorf("shield: cloud %s holds %s@%d newer than origin %d", cid, url, c.version, ov)
			}
			if c.version < c.delivered {
				return fmt.Errorf("shield: cloud %s holds %s@%d older than last delivery %d", cid, url, c.version, c.delivered)
			}
			if c.shield == "" {
				continue // degraded direct-origin copy: no serving shield
			}
			s, ok := t.shields[c.shield]
			if !ok {
				return fmt.Errorf("shield: cloud %s copy %s names unknown shield %s", cid, url, c.shield)
			}
			sv, held := s.docs[url]
			if !held {
				return fmt.Errorf("shield: cloud %s holds %s@%d but serving shield %s dropped its copy", cid, url, c.version, s.id)
			}
			if c.version > sv {
				return fmt.Errorf("shield: cloud %s holds %s@%d newer than shield %s@%d", cid, url, c.version, s.id, sv)
			}
		}
	}
	return nil
}

// CheckQuiescent verifies tier-level freshness at a quiescent point
// (every live shield resynced on a clean network): each live shield's
// copies match the origin versions exactly, on top of the staleness
// bound.
func (t *Tier) CheckQuiescent() error {
	if err := t.CheckStalenessBound(); err != nil {
		return err
	}
	for _, sid := range t.order {
		s := t.shields[sid]
		if s.down {
			continue
		}
		urls := make([]string, 0, len(s.docs))
		for url := range s.docs {
			urls = append(urls, url)
		}
		sort.Strings(urls)
		for _, url := range urls {
			if ov := t.origin[url]; s.docs[url] != ov {
				return fmt.Errorf("shield: quiescent shield %s holds %s@%d, origin at %d", sid, url, s.docs[url], ov)
			}
			if t.purgeGen[url] > s.purgeSeen[url] {
				return fmt.Errorf("shield: quiescent shield %s holds purged %s (gen %d < %d)", sid, url, s.purgeSeen[url], t.purgeGen[url])
			}
		}
	}
	return nil
}
