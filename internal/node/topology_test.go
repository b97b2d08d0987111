package node

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/obs"
)

// collectHook is the origin's transport in the lost-update tests: the first
// /loads/collect after arm runs the armed membership change, in the middle
// of a sub-range determination cycle.
type collectHook struct {
	Transport
	change atomic.Pointer[func()]
	done   chan struct{}
}

func (h *collectHook) arm(change func()) {
	h.done = make(chan struct{})
	h.change.Store(&change)
}

func (h *collectHook) PostJSON(ctx context.Context, url string, in, out any) error {
	if strings.HasSuffix(url, "/loads/collect") {
		if change := h.change.Swap(nil); change != nil {
			go func() {
				defer close(h.done)
				(*change)()
			}()
			// A coordinator that serialises its topology writers keeps the
			// change waiting until the cycle ends; one that does not lets
			// it through here, and the wait makes that interleaving certain.
			select {
			case <-h.done:
			case <-time.After(200 * time.Millisecond):
			}
		}
	}
	return h.Transport.PostJSON(ctx, url, in, out)
}

// topologyCluster is four nodes in two rings of two (n0,n2 and n1,n3) at
// IntraGen 200, the origin's transport a collectHook.
func topologyCluster(t *testing.T) (*LocalCluster, *collectHook) {
	t.Helper()
	hook := &collectHook{Transport: NewHTTPTransport(TransportOptions{})}
	lc, err := StartLocalClusterWith([]string{"n0", "n1", "n2", "n3"}, 2, testCatalog(20), ClusterConfig{IntraGen: 200},
		func(name string) Transport {
			if name == "origin" {
				return hook
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, hook
}

// checkTopology requires the origin's layout, its dead set and every live
// node's view to tell one story: each ring's sub-ranges partition
// [0, IntraGen), a node that is not down owns exactly one sub-range, in its
// configured ring, a down node owns none, and every node that is not down
// has the origin's layout installed.
func checkTopology(t *testing.T, lc *LocalCluster) {
	t.Helper()
	layout := lc.Origin.Assignments()
	state := fmt.Sprint(layout.Rings)
	down := make(map[string]bool)
	for _, name := range lc.Origin.DownNodes() {
		down[name] = true
	}
	if len(layout.Rings) != len(lc.Cfg.Rings) {
		t.Fatalf("%d rings laid out, %d configured: %s", len(layout.Rings), len(lc.Cfg.Rings), state)
	}
	owned := make(map[string]int)
	for r, subs := range layout.Rings {
		next := 0
		for _, s := range subs {
			if s.Lo != next || s.Hi < s.Lo {
				t.Fatalf("ring %d is not a partition at %+v: %s", r, s, state)
			}
			next = s.Hi + 1
			owned[s.Node]++
			if !slices.Contains(lc.Cfg.Rings[r], s.Node) {
				t.Fatalf("%s owns a sub-range of ring %d, not its configured ring: %s", s.Node, r, state)
			}
		}
		if next != lc.Cfg.IntraGen {
			t.Fatalf("ring %d ends at %d, want %d: %s", r, next, lc.Cfg.IntraGen, state)
		}
	}
	for name, cn := range lc.Caches {
		switch {
		case down[name] && owned[name] != 0:
			t.Fatalf("%s is down but still owns a sub-range: %s", name, state)
		case !down[name] && owned[name] == 0:
			t.Fatalf("%s is live and not down, but owns no sub-range: %s", name, state)
		case !down[name] && owned[name] != 1:
			t.Fatalf("%s owns %d sub-ranges: %s", name, owned[name], state)
		}
		if view := cn.AssignmentsView(); !down[name] && !reflect.DeepEqual(view, layout) {
			t.Fatalf("%s has %v installed, the origin has %s", name, view.Rings, state)
		}
	}
}

// A rejoin that lands while a cycle is collecting loads must survive the
// cycle: the layout the cycle installs has the rejoiner in it.
func TestRebalanceDoesNotUndoReadmit(t *testing.T) {
	lc, hook := topologyCluster(t)
	ctx := context.Background()
	if _, err := lc.Origin.declareDead(ctx, []string{"n1"}); err != nil {
		t.Fatal(err)
	}
	checkTopology(t, lc)
	hook.arm(func() {
		if err := lc.Origin.Readmit(ctx, "n1"); err != nil {
			t.Error(err)
		}
	})
	if _, err := lc.Origin.Rebalance(); err != nil {
		t.Fatal(err)
	}
	<-hook.done
	if got := lc.Origin.DownNodes(); len(got) != 0 {
		t.Fatalf("down after the rejoin: %v", got)
	}
	checkTopology(t, lc)
}

// A removal that lands while a cycle is collecting loads must survive the
// cycle: the layout the cycle installs does not bring the dead node back.
func TestRebalanceDoesNotUndoDeclareDead(t *testing.T) {
	lc, hook := topologyCluster(t)
	hook.arm(func() {
		if _, err := lc.Origin.declareDead(context.Background(), []string{"n1"}); err != nil {
			t.Error(err)
		}
	})
	if _, err := lc.Origin.Rebalance(); err != nil {
		t.Fatal(err)
	}
	<-hook.done
	if got := lc.Origin.DownNodes(); !reflect.DeepEqual(got, []string{"n1"}) {
		t.Fatalf("down after the removal: %v", got)
	}
	checkTopology(t, lc)
}

// TestChaosTopologyHammer runs every topology writer at once — cycles,
// failure sweeps that declare every beating node dead, heartbeats that
// bring them back, probe-and-repair passes — in bursts, and requires one
// quiet cycle after each burst to leave a consistent cluster.
func TestChaosTopologyHammer(t *testing.T) {
	checkLeaks(t)
	const bursts, rounds = 10, 30
	lc, _ := topologyCluster(t)
	client := &http.Client{Timeout: 5 * time.Second}
	// Errors are part of the storm: a sweep may find a ring down to its
	// last beacon point, a cycle may find nothing to do.
	writers := []func(){
		func() { _, _ = lc.Origin.Rebalance() },
		func() { _, _ = lc.Origin.SweepFailures(time.Nanosecond) },
		func() { _ = postJSON(client, lc.Cfg.OriginAddr+"/repair", struct{}{}, nil) },
	}
	for _, cn := range lc.Caches {
		writers = append(writers, cn.sendHeartbeat)
	}
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for _, f := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					f()
				}
			}()
		}
		wg.Wait()
		if _, err := lc.Origin.Rebalance(); err != nil {
			t.Fatal(err)
		}
		checkTopology(t, lc)
	}
}

// cloudLayout renders a core.Cloud's rings in the node's wire form.
func cloudLayout(c *core.Cloud) Assignments {
	rings := c.RingAssignments()
	a := Assignments{Rings: make([][]Subrange, len(rings))}
	for r, subs := range rings {
		for _, s := range subs {
			a.Rings[r] = append(a.Rings[r], Subrange{Node: s.ID, Lo: s.Sub.Lo, Hi: s.Sub.Hi})
		}
	}
	return a
}

// directoryNet is the origin's transport in the topology differential: the
// coordinator's calls land on one directory per live cache, with no HTTP in
// between. A cache that is down has no directory and refuses the call.
type directoryNet map[string]*directory

func (dn directoryNet) GetJSON(context.Context, string, any) error { return nil }

func (dn directoryNet) PostJSON(_ context.Context, rawurl string, in, out any) error {
	u, err := url.Parse(rawurl)
	if err != nil {
		return err
	}
	d, ok := dn[u.Host]
	if !ok {
		return fmt.Errorf("%s is down", u.Host)
	}
	switch u.Path {
	case "/loads/collect":
		*out.(*LoadReport) = d.collectLoads()
	case "/subranges":
		d.install(in.(Assignments))
	}
	return nil
}

// TestOriginTopologyMatchesCore is the topology half of the differential
// (TestDirectoryMatchesCore has the record half, and is handed the Cloud's
// layouts): one seeded schedule of cycles with per-IrH loads, crashes and
// rejoins goes through core.Cloud (Rebalance, RemoveCache, AddCache) and
// through the live coordinator (OriginNode.Rebalance over the directories'
// load reports, declareDead, Readmit), and after every step the two layouts
// must be equal, from the initial split on. The rings are uneven (3, 2, 2)
// and IntraGen is odd, so every rounding rule of the sub-range algebra is
// met; one cache is down at a time, so the Cloud's fewest-members choice is
// the ring the cache left. A rejoin comes right after a cycle: a donor's
// load for the values it hands over counts in the Cloud's ring total and
// not in the origin's, which takes a report only inside the reporter's
// sub-range (DESIGN.md, "One protocol engine: direction").
func TestOriginTopologyMatchesCore(t *testing.T) {
	const (
		caches, rings, gen = 7, 3, 97
		docs, steps        = 300, 400
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := ClusterConfig{IntraGen: gen, Rings: make([][]string, rings), Addrs: make(map[string]string), OriginAddr: "http://origin"}
		var ids []string
		for i := 0; i < caches; i++ {
			id := fmt.Sprintf("c%d", i)
			ids = append(ids, id)
			cfg.Rings[i%rings] = append(cfg.Rings[i%rings], id)
			cfg.Addrs[id] = "http://" + id
		}
		cloud, err := core.New(core.Config{NumRings: rings, IntraGen: gen, FineGrained: true}, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		net := make(directoryNet)
		origin, err := NewOriginNodeWithTransport(cfg, nil, net)
		if err != nil {
			t.Fatal(err)
		}
		join := func(id string) {
			net[id] = newDirectory(id, gen, ids, origin.Assignments(), obs.NewRegistry("topo", nil))
		}
		for _, id := range ids {
			join(id)
		}
		same := func(step int, what string) {
			t.Helper()
			if got, want := origin.Assignments(), cloudLayout(cloud); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d, after %s:\norigin %v\ncloud  %v", seed, step, what, got.Rings, want.Rings)
			}
		}
		same(0, "the initial split")

		ctx := context.Background()
		down := ""
		for step := 1; step <= steps; step++ {
			// The cycle's load: a hot set that moves through the catalog, so
			// that boundaries keep having somewhere to go.
			for i := rng.Intn(120); i > 0; i-- {
				doc := document.Document{URL: fmt.Sprintf("http://topo/doc/%03d", (int(rng.ExpFloat64()*20)+step*3)%docs), Version: 1}
				beacon, err := origin.Assignments().ownerOf(doc.URL, gen)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					_, err = cloud.Update(doc, int64(step))
					net[beacon].update(int64(step), doc)
				} else {
					_, err = cloud.Lookup(doc.URL, int64(step))
					net[beacon].lookup(int64(step), doc.URL, "", 0, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if down == "" && rng.Intn(5) == 0 {
				down = ids[rng.Intn(len(ids))]
				delete(net, down)
				if err := cloud.RemoveCache(down, false); err != nil {
					t.Fatal(err)
				}
				if _, err := origin.declareDead(ctx, []string{down}); err != nil {
					t.Fatal(err)
				}
				same(step, "the crash of "+down)
			}
			cloud.Rebalance()
			if _, err := origin.Rebalance(); err != nil {
				t.Fatal(err)
			}
			same(step, "the cycle")
			if down != "" && rng.Intn(3) == 0 {
				if err := cloud.AddCache(down, 1, 0); err != nil {
					t.Fatal(err)
				}
				join(down)
				if err := origin.Readmit(ctx, down); err != nil {
					t.Fatal(err)
				}
				same(step, "the rejoin of "+down)
				down = ""
			}
		}
	}
}
