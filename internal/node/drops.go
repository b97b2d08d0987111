package node

import (
	"context"
	"math"
	"strconv"
	"strings"
	"time"

	"cachecloud/internal/document"
)

// Holder-list maintenance, requester side (DESIGN.md, "Holder-list
// maintenance"). A node is listed as a holder by the /lookup it sends, so
// a miss costs no /register; what it evicts, or registers for and then
// does not store, becomes a pending drop that rides a later /lookup to the
// owning beacon or, when too many wait, a batched /deregister sent off the
// request path. Between the two a beacon lists a superset of the holders.
const (
	// maxPiggybackDrops and maxPiggybackBytes bound what one /lookup
	// carries: a count, and the URLs' total length so that the request line
	// stays far below any server's header limit.
	maxPiggybackDrops = 16
	maxPiggybackBytes = 2048
	// maxBatchDrops bounds the URLs of one batched /deregister.
	maxBatchDrops = 512
	// flushPendingAt is how many drops may wait before a background flush
	// is scheduled. Lookups usually drain the queue well below it.
	flushPendingAt = 64
	// maxPendingDrops caps the queue while a beacon is unreachable; past it
	// the oldest drop is forgotten (its holder entry stays until a publish
	// or the holder's next registration meets it).
	maxPendingDrops = 1024
)

// pendingDrop is one deregistration waiting for a message to ride. The
// hash is kept so that routing a drop costs no second MD5.
type pendingDrop struct {
	url  string
	hash document.Hash
}

// missState is what this node knows about the misses it has in flight on
// one URL: how many, and the newest version a beacon pushed meanwhile.
type missState struct {
	n      int
	pushed document.Document
}

// nextSeq returns the next per-node sequence number. Every registration
// and drop carries one; a beacon keeps the newest per holder and ignores a
// drop older than the registration it meets.
func (n *CacheNode) nextSeq() uint64 {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.seq++
	return n.seq
}

// beginMiss marks a miss on url in flight. While it is, pending drops of
// url wait and a pushed update of url is kept for place.
func (n *CacheNode) beginMiss(url string) {
	n.hmu.Lock()
	st := n.misses[url]
	st.n++
	n.misses[url] = st
	n.hmu.Unlock()
}

// endMiss ends a miss. The lookup listed this node as a holder, so a miss
// that stored nothing owes the beacon a drop.
func (n *CacheNode) endMiss(url string, stored bool) {
	n.hmu.Lock()
	st := n.misses[url]
	if st.n--; st.n <= 0 {
		delete(n.misses, url)
	} else {
		n.misses[url] = st
	}
	if !stored {
		n.enqueueDropLocked(url)
	}
	n.hmu.Unlock()
}

// notePushed keeps doc for the misses in flight on its URL and reports
// whether there are any.
func (n *CacheNode) notePushed(doc document.Document) bool {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	st, ok := n.misses[doc.URL]
	if ok && doc.Version > st.pushed.Version {
		st.pushed = doc
		n.misses[doc.URL] = st
	}
	return ok
}

// newerPushed returns the newer of doc and the version pushed to this node
// while its miss was in flight.
func (n *CacheNode) newerPushed(doc document.Document) document.Document {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	if st, ok := n.misses[doc.URL]; ok && st.pushed.Version > doc.Version {
		return st.pushed
	}
	return doc
}

// enqueueDrops queues one deregistration per URL: documents just evicted,
// drops whose message did not arrive, or entries a beacon reported beyond
// what this node stores.
func (n *CacheNode) enqueueDrops(urls []string) {
	if len(urls) == 0 {
		return
	}
	n.hmu.Lock()
	for _, u := range urls {
		n.enqueueDropLocked(u)
	}
	n.hmu.Unlock()
}

// enqueueDropLocked appends one drop and schedules a background flush
// when the queue has grown past its mark. Caller holds n.hmu.
func (n *CacheNode) enqueueDropLocked(url string) {
	if len(n.dropQueue) >= maxPendingDrops {
		n.dropQueue = n.dropQueue[:copy(n.dropQueue, n.dropQueue[1:])]
	}
	n.dropQueue = append(n.dropQueue, pendingDrop{url: url, hash: document.HashURL(url)})
	if len(n.dropQueue) >= n.flushAt && n.flushTimer == nil && !n.closed {
		n.flushWG.Add(1)
		n.flushTimer = n.clock.AfterFunc(0, n.backgroundFlush)
	}
}

// takeDrops removes from the queue, and returns, the drops that a message
// to beacon may carry now: those the assignment in force routes there, up
// to maxN URLs of maxBytes in all. Drops this node owns as beacon are
// applied on the way. A drop is cancelled when the node holds the document
// again, and waits while a miss on it is in flight here (that miss's
// lookup listed the node again and may still store). seq numbers the
// message; it is drawn inside the section that checks for misses in flight,
// so every registration a later miss makes is newer than these drops.
func (n *CacheNode) takeDrops(beacon string, maxN, maxBytes int) (urls []string, seq uint64) {
	view := n.dir.route()
	var own []string
	n.hmu.Lock()
	n.seq++
	seq = n.seq
	kept := n.dropQueue[:0]
	for _, d := range n.dropQueue {
		// A drop no beacon covers (owner "") stays queued like one for
		// another beacon.
		owner, _ := view.beacon(d.hash)
		fits := owner == n.name || (owner == beacon && len(urls) < maxN && len(d.url) <= maxBytes)
		if _, busy := n.misses[d.url]; !fits || busy {
			kept = append(kept, d)
			continue
		}
		switch {
		case n.store.Has(d.url):
			n.dropsCancelled.Inc()
		case owner == n.name:
			own = append(own, d.url)
		default:
			urls = append(urls, d.url)
			maxBytes -= len(d.url)
		}
	}
	for i := len(kept); i < len(n.dropQueue); i++ {
		n.dropQueue[i] = pendingDrop{}
	}
	n.dropQueue = kept
	n.hmu.Unlock()
	if len(own) > 0 {
		n.dir.deregister(n.name, seq, own)
	}
	return urls, seq
}

// lookupQuery renders the path and query of a registering /lookup.
func lookupQuery(url, holder string, seq uint64, drops []string) string {
	var b strings.Builder
	b.WriteString("/lookup?url=")
	b.WriteString(queryEscape(url))
	b.WriteString("&holder=")
	b.WriteString(queryEscape(holder))
	b.WriteString("&seq=")
	b.WriteString(strconv.FormatUint(seq, 10))
	for _, d := range drops {
		b.WriteString("&drop=")
		b.WriteString(queryEscape(d))
	}
	return b.String()
}

// lookup asks one beacon — possibly this node — for url's holders. The
// same exchange lists this node as a holder and carries the pending drops
// that beacon owns; they go back on the queue when the call fails.
func (n *CacheNode) lookup(ctx context.Context, beaconName, beaconBase, url string) (lr LookupResponse, ok bool) {
	drops, seq := n.takeDrops(beaconName, maxPiggybackDrops, maxPiggybackBytes)
	if beaconName == n.name {
		return n.dir.lookup(n.now(), url, n.name, seq, nil), true
	}
	if err := n.tp.GetJSON(ctx, beaconBase+lookupQuery(url, n.name, seq, drops), &lr); err != nil {
		n.enqueueDrops(drops)
		return LookupResponse{}, false
	}
	n.dropsPiggybacked.Add(int64(len(drops)))
	return lr, true
}

// flushDrops sends every pending drop that can be sent now, one batched
// /deregister per live beacon. Drops whose beacon is down or does not
// answer stay queued: they are routed again, by the assignment then in
// force, on the next lookup or flush.
func (n *CacheNode) flushDrops(ctx context.Context) {
	for _, peer := range n.peers {
		if n.isDown(peer) {
			continue
		}
		for {
			urls, seq := n.takeDrops(peer, maxBatchDrops, math.MaxInt)
			if len(urls) == 0 {
				break
			}
			req := DeregisterRequest{Node: n.name, Seq: seq, URLs: urls}
			if err := n.tp.PostJSON(ctx, n.cfg.Addrs[peer]+"/deregister", req, nil); err != nil {
				n.enqueueDrops(urls)
				break
			}
			n.dropsBatched.Add(int64(len(urls)))
		}
	}
}

// backgroundFlush is the overflow path: it runs on the node clock's timer,
// under its own deadline, so no client request waits for it or lends it a
// context. The next one is scheduled only after the queue has grown by
// another flushPendingAt, so drops that cannot be sent do not cause a
// flush per eviction.
func (n *CacheNode) backgroundFlush() {
	defer n.flushWG.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	n.flushDrops(ctx)
	cancel()
	n.hmu.Lock()
	n.flushAt = len(n.dropQueue) + flushPendingAt
	n.flushTimer = nil
	n.hmu.Unlock()
}

// stopFlush forbids further background flushes and waits for the one in
// flight, if any.
func (n *CacheNode) stopFlush() {
	n.hmu.Lock()
	n.closed = true
	t := n.flushTimer
	n.hmu.Unlock()
	if t != nil && t.Stop() {
		n.flushWG.Done()
	}
	n.flushWG.Wait()
}

// PendingDrops returns how many deregistrations wait to be sent
// (white-box accessor for the deterministic harness).
func (n *CacheNode) PendingDrops() int {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	return len(n.dropQueue)
}
