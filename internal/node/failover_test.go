package node

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/node/chaos"
)

// chaosCluster boots a cluster whose every participant — nodes, origin,
// clients — routes through one seeded chaos network.
func chaosCluster(t *testing.T, net *chaos.Network, names []string, ringSize int) *LocalCluster {
	t.Helper()
	inner := func() *HTTPTransport {
		return NewHTTPTransport(TransportOptions{
			RequestTimeout:   2 * time.Second,
			MaxRetries:       1,
			BreakerThreshold: -1, // keep routing deterministic under chaos
			Clock:            quickClock{},
		})
	}
	lc, err := StartLocalClusterWith(names, ringSize, testCatalog(60), ClusterConfig{IntraGen: 200},
		func(name string) Transport { return net.Transport(name, inner()) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	for name, addr := range lc.Cfg.Addrs {
		net.Bind(name, addr)
	}
	net.Bind("origin", lc.Cfg.OriginAddr)
	return lc
}

// recordCount reads how many of a node's owned lookup records are not
// empty: what its heartbeat reports.
func recordCount(n *CacheNode) int {
	count := 0
	for _, wr := range n.Records() {
		if !wr.Empty() {
			count++
		}
	}
	return count
}

// originHeldFor reads the origin's last-heartbeat record count for a node.
func originHeldFor(o *OriginNode, name string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.recordsHeld[name]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosBeaconFailoverEndToEnd is the end-to-end fault-tolerance test:
// a seeded chaos network partitions one beacon node mid-run while client
// load keeps flowing. Every client request must complete (sibling
// failover or origin fallback), the cluster must converge on the reduced
// membership within K heartbeat intervals, recovery accounting must
// balance (RecordsRecovered == RecordsLost under replication), and the
// healed node must be re-admitted.
func TestChaosBeaconFailoverEndToEnd(t *testing.T) {
	checkLeaks(t)
	const (
		hbInterval = 100 * time.Millisecond
		missK      = 4
	)
	net := chaos.NewNetwork(chaos.Config{Seed: 1234, MaxDelay: 2 * time.Millisecond})
	names := []string{"n0", "n1", "n2", "n3"}
	lc := chaosCluster(t, net, names, 2)
	victim := "n0"

	client := func(preferred string) *Client {
		c, err := NewClientWithTransport(lc.Cfg, preferred,
			net.Transport("client-"+preferred, NewHTTPTransport(TransportOptions{
				RequestTimeout: 2 * time.Second,
				MaxRetries:     1,
				Clock:          quickClock{},
			})))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0, c1 := client(victim), client("n1")

	// Populate through the victim's client so the victim holds copies and
	// beacon records exist for every document.
	urls := make([]string, 60)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://live/doc/%d", i)
	}
	for _, u := range urls {
		if _, _, err := c0.Get(u); err != nil {
			t.Fatalf("populate %s: %v", u, err)
		}
	}
	if recordCount(lc.Caches[victim]) == 0 {
		t.Fatal("victim owns no records; test cannot exercise recovery")
	}

	// Lazily replicate every beacon's records to its ring sibling, then
	// start the failure-detection plane.
	if _, err := lc.Origin.TriggerReplication(); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	for _, n := range lc.Caches {
		stop := n.StartHeartbeat(hbInterval)
		defer stop()
	}
	stopFD := lc.Origin.StartFailureDetector(hbInterval, missK)
	defer stopFD()

	// Wait until the origin's view of the victim's record count is
	// current, so RecordsLost is accounted from a fresh heartbeat.
	waitFor(t, 5*time.Second, "victim heartbeat", func() bool {
		return originHeldFor(lc.Origin, victim) == recordCount(lc.Caches[victim])
	})

	// Partition the victim and keep client load flowing through the
	// detection window. Every request must complete.
	var loadErrs atomic.Int64
	var loadReqs atomic.Int64
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			if _, _, err := c1.Get(urls[i%len(urls)]); err != nil {
				loadErrs.Add(1)
			}
			loadReqs.Add(1)
		}
	}()
	net.Kill(victim)

	// Convergence: within K heartbeat intervals (plus sweep scheduling
	// slack) the survivors must have been told the victim is dead.
	convergeBudget := time.Duration(missK+3) * hbInterval * 4
	waitFor(t, convergeBudget, "membership convergence", func() bool {
		return lc.Origin.Stats().NodesDown == 1 && lc.Caches["n1"].isDown(victim)
	})

	// Recovery accounting: the records the victim took down must all have
	// been recovered from its ring sibling's lazy replica.
	waitFor(t, 5*time.Second, "recovery accounting", func() bool {
		st := lc.Origin.Stats()
		return st.RecordsLost > 0 && st.RecordsRecovered == st.RecordsLost
	})

	// Let failed-over traffic through: wait until at least one request has
	// actually taken the failover or degraded path (the condition asserted
	// below), then stop the load — no fixed sleep.
	waitFor(t, 5*time.Second, "failover traffic", func() bool {
		var fo, dg int64
		for _, n := range lc.Caches {
			fo += n.failedOver.Value()
			dg += n.degraded.Value()
		}
		return fo+dg > 0
	})
	close(stopLoad)
	wg.Wait()
	if n := loadErrs.Load(); n != 0 {
		t.Fatalf("%d of %d client requests failed during the partition window", n, loadReqs.Load())
	}
	if loadReqs.Load() == 0 {
		t.Fatal("load generator issued no requests")
	}

	// Requests for victim-owned documents either failed over to the ring
	// sibling or degraded to the origin while the partition lasted.
	totalFailedOver, totalDegraded := int64(0), int64(0)
	for _, n := range lc.Caches {
		totalFailedOver += n.failedOver.Value()
		totalDegraded += n.degraded.Value()
	}
	if totalFailedOver+totalDegraded == 0 {
		t.Fatal("no request used the failover or degraded path during the partition")
	}

	// Heal the partition: the victim's next heartbeat re-admits it with a
	// fresh sub-range and membership clears.
	net.Heal(victim)
	waitFor(t, 5*time.Second, "victim rejoin", func() bool {
		st := lc.Origin.Stats()
		return st.Rejoins >= 1 && st.NodesDown == 0
	})
	waitFor(t, 5*time.Second, "membership heal broadcast", func() bool {
		return !lc.Caches["n1"].isDown(victim)
	})

	// The rejoined node serves again and the cloud still answers for
	// every document.
	for _, u := range urls {
		if _, _, err := c0.Get(u); err != nil {
			t.Fatalf("post-rejoin request %s: %v", u, err)
		}
	}
}

// TestChaosDropsAreAbsorbedByClientFailover drives load through a lossy
// chaos network (no partitions) and checks the client failover chain
// absorbs injected drops.
func TestChaosDropsAreAbsorbedByClientFailover(t *testing.T) {
	checkLeaks(t)
	net := chaos.NewNetwork(chaos.Config{Seed: 77, DropProb: 0.10})
	lc := chaosCluster(t, net, []string{"d0", "d1", "d2", "d3"}, 2)
	c, err := NewClientWithTransport(lc.Cfg, "d0",
		net.Transport("client", NewHTTPTransport(TransportOptions{
			RequestTimeout: 2 * time.Second,
			MaxRetries:     1,
			Clock:          quickClock{},
		})))
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 120; i++ {
		if _, _, err := c.Get(fmt.Sprintf("http://live/doc/%d", i%60)); err == nil {
			ok++
		}
	}
	// With four-node failover a request only fails when every node's
	// chain fails; at p=0.1 drops that should be rare.
	if ok < 110 {
		t.Fatalf("only %d/120 requests completed under 10%% drop chaos", ok)
	}
	if _, faults := net.Stats(); faults == 0 {
		t.Fatal("chaos network injected no faults; test is vacuous")
	}
	requests, failovers := c.Stats()
	if requests != 120 {
		t.Fatalf("requests = %d", requests)
	}
	_ = failovers // failovers depend on the seed; presence of faults is asserted above
}

// TestCrashRecoversEveryRecordAtStake: a victim owns records a client on
// the other ring holds, one that names only a version, and records nobody
// holds. Its heartbeat reports the first two kinds, its push carries them,
// and when it crashes its ring sibling promotes each with its holders:
// RecordsLost and RecordsRecovered both grow by their count, and nothing
// of the empty records reaches the sibling. On the parent commit the empty
// records were reported, pushed and promoted too.
func TestCrashRecoversEveryRecordAtStake(t *testing.T) {
	net := chaos.NewNetwork(chaos.Config{Seed: 7})
	lc := chaosCluster(t, net, []string{"n0", "n1", "n2", "n3"}, 2)
	victim := lc.Caches["n0"]
	layout := victim.AssignmentsView()
	sibling, _, ok := victim.siblingOf("n0")
	if !ok {
		t.Fatal("n0 has no ring sibling")
	}
	other := "n2"
	if layout.ringOf(other) == layout.ringOf("n0") {
		other = "n1"
	}
	var held, empty []string
	for _, d := range testCatalog(60) {
		if owner, _ := layout.ownerOf(d.URL, lc.Cfg.IntraGen); owner == "n0" {
			if len(held) <= len(empty) {
				held = append(held, d.URL)
			} else {
				empty = append(empty, d.URL)
			}
		}
	}
	versioned, empty := empty[0], empty[1:]
	if len(held) == 0 || len(empty) == 0 {
		t.Fatalf("n0 owns %d URLs to hold and %d to leave empty, want some of each", len(held), len(empty))
	}
	c, err := NewClientWithTransport(lc.Cfg, other, net.Transport("client", NewHTTPTransport(TransportOptions{Clock: quickClock{}})))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range held {
		if _, _, err := c.Get(u); err != nil {
			t.Fatalf("get %s: %v", u, err)
		}
	}
	victim.dir.update(0, document.Document{URL: versioned, Version: 5})
	for _, u := range empty {
		victim.dir.lookup(0, u, "", 0, nil)
	}
	var atStake []WireRecord
	for _, wr := range victim.Records() {
		if !wr.Empty() {
			atStake = append(atStake, wr)
		}
	}
	if len(atStake) != len(held)+1 || len(victim.Records()) != len(atStake)+len(empty) {
		t.Fatalf("n0 owns %d records, %d of them at stake; want %d at stake and %d empty", len(victim.Records()), len(atStake), len(held)+1, len(empty))
	}
	if _, err := lc.Origin.TriggerReplication(); err != nil {
		t.Fatal(err)
	}
	if got := lc.Caches[sibling].ReplicaSnapshot(); !reflect.DeepEqual(got, atStake) {
		t.Fatalf("%s keeps replicas %+v, want %+v", sibling, got, atStake)
	}
	victim.sendHeartbeat()
	if got := originHeldFor(lc.Origin, "n0"); got != len(atStake) {
		t.Fatalf("the heartbeat reported %d records held, want %d", got, len(atStake))
	}
	before := lc.Origin.Stats()
	net.Kill("n0")
	if resp, err := lc.Origin.Repair(); err != nil || !reflect.DeepEqual(resp.Removed, []string{"n0"}) {
		t.Fatalf("repair removed %v (%v), want [n0]", resp.Removed, err)
	}
	after := lc.Origin.Stats()
	lost, recovered := after.RecordsLost-before.RecordsLost, after.RecordsRecovered-before.RecordsRecovered
	if lost != int64(len(atStake)) || recovered != lost {
		t.Fatalf("RecordsLost grew by %d and RecordsRecovered by %d, want %d each", lost, recovered, len(atStake))
	}
	promoted := map[string]WireRecord{}
	for _, wr := range lc.Caches[sibling].Records() {
		promoted[wr.URL] = wr
	}
	for _, wr := range atStake {
		if got := promoted[wr.URL]; !reflect.DeepEqual(got, wr) {
			t.Fatalf("%s promoted %+v, want %+v", sibling, got, wr)
		}
	}
	for _, u := range empty {
		if wr, ok := promoted[u]; ok {
			t.Fatalf("%s owns the empty record %+v", sibling, wr)
		}
	}
}
