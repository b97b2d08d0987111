package edgenet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cachecloud/internal/document"
	"cachecloud/internal/landmark"
	"cachecloud/internal/trace"
)

func networkTrace(cacheIDs []string, updates int) *trace.Trace {
	return trace.GenerateZipf(trace.ZipfConfig{
		Seed: 4, NumDocs: 3000, Alpha: 0.9, CacheIDs: cacheIDs,
		Duration: 60, ReqPerCache: 15, UpdatesPerUnit: updates,
	})
}

func explicitMemberships(clouds, size int) [][]string {
	out := make([][]string, clouds)
	for c := range out {
		for i := 0; i < size; i++ {
			out[c] = append(out[c], fmt.Sprintf("edge-%d-%d", c, i))
		}
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Config{}); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("err = %v, want ErrBadNetwork", err)
	}
	if _, err := Build([][]string{{"a"}}, Config{RingSize: 2}); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("undersized cloud err = %v", err)
	}
	if _, err := Build([][]string{{"a", "b"}, {"b", "c"}}, Config{}); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("duplicate member err = %v", err)
	}
}

func TestBuildTopologyAndRouting(t *testing.T) {
	n, err := Build(explicitMemberships(3, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumClouds() != 3 {
		t.Fatalf("clouds = %d", n.NumClouds())
	}
	if got := len(n.CacheIDs()); got != 12 {
		t.Fatalf("caches = %d", got)
	}
	if n.CloudOf("edge-2-3") != 2 {
		t.Fatalf("CloudOf = %d", n.CloudOf("edge-2-3"))
	}
	if n.CloudOf("ghost") != -1 {
		t.Fatal("unknown cache resolved")
	}
}

func TestRunEndToEnd(t *testing.T) {
	members := explicitMemberships(3, 4)
	n, err := Build(members, Config{CycleLength: 15})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range members {
		ids = append(ids, m...)
	}
	tr := networkTrace(ids, 30)
	res, err := n.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(tr.NumRequests()) {
		t.Fatalf("requests = %d, want %d", res.Requests, tr.NumRequests())
	}
	if res.LocalHits+res.CloudHits+res.GroupMisses != res.Requests {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.HitRate() <= 0 {
		t.Fatal("no in-network hits")
	}
	if len(res.PerCloud) != 3 {
		t.Fatalf("per-cloud summaries = %d", len(res.PerCloud))
	}
	for i, pc := range res.PerCloud {
		if pc.Caches != 4 || pc.Requests == 0 {
			t.Fatalf("cloud %d summary %+v", i, pc)
		}
	}
}

// The paper's cooperative-consistency benefit: the origin sends exactly one
// update message per cloud, independent of how many caches hold the
// document.
func TestUpdateMessagesPerCloud(t *testing.T) {
	members := explicitMemberships(4, 3)
	n, err := Build(members, Config{RingSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range members {
		ids = append(ids, m...)
	}
	tr := networkTrace(ids, 20)
	res, err := n.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateMessages != res.Updates*4 {
		t.Fatalf("update messages = %d, want updates×clouds = %d",
			res.UpdateMessages, res.Updates*4)
	}
	// With ad hoc placement and hot documents replicated at many caches,
	// a per-holder push would cost far more messages than per-cloud push.
	if res.HolderRefreshes <= res.UpdateMessages {
		t.Fatalf("holder refreshes %d not above per-cloud messages %d — workload too cold",
			res.HolderRefreshes, res.UpdateMessages)
	}
}

// A member that sends no request is still one of its cloud's beacon points:
// the summary counts it, and the beacon-load CoV is taken over every member.
// With one document all beacon load sits on one of the n points, so the CoV
// is sqrt(n-1).
func TestSilentMemberIsBeaconPoint(t *testing.T) {
	n, err := Build([][]string{{"a", "b", "c", "d"}, {"e", "f"}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Docs: []document.Document{{URL: "u", Size: 100}}, Duration: 2}
	for _, c := range []string{"a", "b", "c", "e", "f"} {
		tr.Events = append(tr.Events, trace.Event{Time: 0, Kind: trace.Request, Cache: c, URL: "u"})
	}
	tr.Events = append(tr.Events, trace.Event{Time: 1, Kind: trace.Update, URL: "u"})
	res, err := n.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	pc := res.PerCloud[0]
	if pc.Caches != 4 || pc.Requests != 3 {
		t.Fatalf("cloud 0 summary %+v, want 4 caches and 3 requests", pc)
	}
	if want := math.Sqrt(3); math.Abs(pc.BeaconCoV-want) > 1e-12 {
		t.Fatalf("cloud 0 beacon CoV = %v, want %v (load over 4 points)", pc.BeaconCoV, want)
	}
	if res.UpdateMessages != 2 || res.HolderRefreshes != 5 {
		t.Fatalf("update messages %d, holder refreshes %d; want 2 and 5",
			res.UpdateMessages, res.HolderRefreshes)
	}
}

func TestRunRejectsUnknownCache(t *testing.T) {
	n, err := Build(explicitMemberships(1, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := networkTrace([]string{"nobody"}, 5)
	if _, err := n.Run(tr); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("err = %v, want ErrBadNetwork", err)
	}
}

func TestRunEmptyTrace(t *testing.T) {
	n, err := Build(explicitMemberships(1, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(&trace.Trace{}); !errors.Is(err, ErrBadNetwork) {
		t.Fatalf("err = %v, want ErrBadNetwork", err)
	}
}

func TestBuildFromTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nodes := landmark.RandomTopology(rng, 30, 3, 12)
	n, clusters, err := BuildFromTopology(nodes, landmark.Config{
		Landmarks: landmark.DefaultLandmarks(),
		BinWidth:  150,
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumClouds() != len(clusters) {
		t.Fatalf("clouds %d != clusters %d", n.NumClouds(), len(clusters))
	}
	if n.NumClouds() < 2 {
		t.Fatalf("topology collapsed to %d clouds", n.NumClouds())
	}
	// Every topology node must be routable.
	for _, node := range nodes {
		if n.CloudOf(node.ID) == -1 {
			t.Fatalf("node %s not in any cloud", node.ID)
		}
	}
	// And the built network must actually run a workload.
	tr := networkTrace(n.CacheIDs(), 10)
	res, err := n.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate() <= 0 {
		t.Fatal("no hits in topology-built network")
	}
}
