package shield

import (
	"fmt"
	"math/rand"
	"testing"
)

func urlN(i int) string { return fmt.Sprintf("http://cloud/doc/%03d", i) }

func cloudN(i int) string { return fmt.Sprintf("c%d", i) }

func mustTier(t *testing.T, shields int) *Tier {
	t.Helper()
	tier, err := New(Config{Shields: shields})
	if err != nil {
		t.Fatalf("New(%d shields): %v", shields, err)
	}
	return tier
}

func TestShieldRouting(t *testing.T) {
	tier := mustTier(t, 3)
	// Ownership is deterministic and total: every cloud maps to a shield.
	owners := map[string]bool{}
	for i := 0; i < 50; i++ {
		owner, err := tier.ShieldFor(cloudN(i))
		if err != nil {
			t.Fatalf("ShieldFor(%s): %v", cloudN(i), err)
		}
		again, _ := tier.ShieldFor(cloudN(i))
		if owner != again {
			t.Fatalf("ShieldFor(%s) unstable: %s then %s", cloudN(i), owner, again)
		}
		owners[owner] = true
	}
	if len(owners) != 3 {
		t.Fatalf("50 clouds map onto %d of 3 shields", len(owners))
	}
	if _, err := mustTier(t, 0).ShieldFor("c0"); err == nil {
		t.Fatal("a single-tier fabric named an owning shield")
	}
}

func TestFetchMissAndHit(t *testing.T) {
	tier := mustTier(t, 2)
	if tier.Fetch(urlN(0), "c0") {
		t.Fatal("first fetch hit an empty shield")
	}
	// A second cloud mapping to the same shield hits the shield copy with
	// no extra origin fetch.
	before := tier.Counters.OriginFetches
	owner, _ := tier.ShieldFor("c0")
	var sameShield string
	for i := 1; ; i++ {
		if o, _ := tier.ShieldFor(cloudN(i)); o == owner {
			sameShield = cloudN(i)
			break
		}
	}
	if !tier.Fetch(urlN(0), sameShield) {
		t.Fatal("second fetch through the same shield missed")
	}
	if tier.Counters.OriginFetches != before || tier.Counters.ShieldHits != 1 {
		t.Fatalf("shield hit cost an origin fetch: %+v", tier.Counters)
	}
	if err := tier.CheckSubscribed(); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutAccounting is the table-driven cross-tier fan-out accounting
// test: one origin update per holding shield, one shield update per
// subscription, and exact message conservation
// (ShieldMessages == CloudsRefreshed + SubsPruned) in every scenario.
func TestFanOutAccounting(t *testing.T) {
	cases := []struct {
		name  string
		setup func(tr *Tier) string // returns the URL to publish
		// expectations for the publish that follows setup
		originMsgs, shieldMsgs int64
		refreshed, pruned      int64
	}{
		{
			name: "one shield one cloud",
			setup: func(tr *Tier) string {
				tr.Fetch(urlN(0), "c0")
				return urlN(0)
			},
			originMsgs: 1, shieldMsgs: 1, refreshed: 1,
		},
		{
			name: "many clouds behind few shields",
			setup: func(tr *Tier) string {
				for i := 0; i < 12; i++ {
					tr.Fetch(urlN(0), cloudN(i))
				}
				return urlN(0)
			},
			// 12 clouds over a 3-shield ring: at most 3 origin messages
			// regardless of cloud count; every subscription gets exactly
			// one shield message. With the MD5 cloud-ID placement all 3
			// shields own at least one of c0..c11.
			originMsgs: 3, shieldMsgs: 12, refreshed: 12,
		},
		{
			name: "unheld document notifies nobody",
			setup: func(tr *Tier) string {
				tr.Fetch(urlN(0), "c0")
				return urlN(7)
			},
		},
		{
			name: "scoped purge prunes one cloud's subscription",
			setup: func(tr *Tier) string {
				for i := 0; i < 12; i++ {
					tr.Fetch(urlN(0), cloudN(i))
				}
				tr.PurgeCloud(urlN(0), "c3")
				return urlN(0)
			},
			originMsgs: 3, shieldMsgs: 11, refreshed: 11,
		},
		{
			name: "global purge silences the document",
			setup: func(tr *Tier) string {
				for i := 0; i < 12; i++ {
					tr.Fetch(urlN(0), cloudN(i))
				}
				tr.PurgeGlobal(urlN(0))
				return urlN(0)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier := mustTier(t, 3)
			url := tc.setup(tier)
			beforeOrigin := tier.Counters.OriginUpdates
			beforeShield := tier.Counters.ShieldUpdates
			rep := tier.Publish(url)

			if rep.OriginMessages != tc.originMsgs {
				t.Errorf("origin messages = %d, want %d", rep.OriginMessages, tc.originMsgs)
			}
			if rep.ShieldMessages != tc.shieldMsgs {
				t.Errorf("shield messages = %d, want %d", rep.ShieldMessages, tc.shieldMsgs)
			}
			if rep.CloudsRefreshed != tc.refreshed || rep.SubsPruned != tc.pruned {
				t.Errorf("refreshed/pruned = %d/%d, want %d/%d",
					rep.CloudsRefreshed, rep.SubsPruned, tc.refreshed, tc.pruned)
			}
			// Conservation: the report balances and matches the counters.
			if rep.ShieldMessages != rep.CloudsRefreshed+rep.SubsPruned {
				t.Errorf("conservation broken: %d shield messages != %d refreshed + %d pruned",
					rep.ShieldMessages, rep.CloudsRefreshed, rep.SubsPruned)
			}
			if got := tier.Counters.OriginUpdates - beforeOrigin; got != rep.OriginMessages {
				t.Errorf("counter OriginUpdates moved %d, report says %d", got, rep.OriginMessages)
			}
			if got := tier.Counters.ShieldUpdates - beforeShield; got != rep.ShieldMessages {
				t.Errorf("counter ShieldUpdates moved %d, report says %d", got, rep.ShieldMessages)
			}
			if err := tier.CheckSubscribed(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestScopedPurgeKeepsShieldServing(t *testing.T) {
	tier := mustTier(t, 2)
	tier.Fetch(urlN(0), "c0")
	tier.Fetch(urlN(0), "c1")
	rep := tier.PurgeCloud(urlN(0), "c0")
	if rep.Clouds != 1 {
		t.Fatalf("scoped purge evicted %d cloud copies, want 1", rep.Clouds)
	}
	if tier.CloudHolds(urlN(0), "c0") {
		t.Fatal("purged cloud still holds the copy")
	}
	if !tier.CloudHolds(urlN(0), "c1") {
		t.Fatal("scoped purge evicted the wrong cloud")
	}
	// The shield keeps its copy: c0's next fetch is a shield hit.
	before := tier.Counters.OriginFetches
	if !tier.Fetch(urlN(0), "c0") || tier.Counters.OriginFetches != before {
		t.Fatalf("re-fetch after scoped purge missed (origin fetches %d -> %d), want shield hit",
			before, tier.Counters.OriginFetches)
	}
}

func TestGlobalPurgeCompleteness(t *testing.T) {
	tier := mustTier(t, 3)
	for i := 0; i < 10; i++ {
		tier.Fetch(urlN(0), cloudN(i))
	}
	rep := tier.PurgeGlobal(urlN(0))
	if rep.Clouds != 10 || rep.Shields != 3 {
		t.Fatalf("global purge evicted %d cloud and %d shield copies, want 10 and 3", rep.Clouds, rep.Shields)
	}
	for i := 0; i < 10; i++ {
		if tier.CloudHolds(urlN(0), cloudN(i)) {
			t.Fatalf("cloud %s still holds the copy after a global purge", cloudN(i))
		}
	}
	if err := tier.CheckSubscribed(); err != nil {
		t.Fatal(err)
	}
	// No shield kept a copy: the next fetch goes to the origin.
	if tier.Fetch(urlN(0), "c0") {
		t.Fatal("a shield served a globally purged document")
	}
}

func TestSingleTierBaseline(t *testing.T) {
	tier := mustTier(t, 0)
	for i := 0; i < 8; i++ {
		if tier.Fetch(urlN(0), cloudN(i)) {
			t.Fatal("single-tier fetch was a shield hit")
		}
	}
	if tier.Counters.OriginFetches != 8 {
		t.Fatalf("single tier: %d origin fetches for 8 misses", tier.Counters.OriginFetches)
	}
	rep := tier.Publish(urlN(0))
	// One origin message per holding cloud: the O(clouds) cost the shield
	// tier exists to collapse.
	if rep.OriginMessages != 8 || rep.ShieldMessages != 0 {
		t.Fatalf("single-tier publish = %+v, want 8 origin messages", rep)
	}
	if err := tier.CheckSubscribed(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckSubscribedCatches plants each half of a broken structure — a
// cloud copy whose shield dropped the document, and one whose subscription
// is gone — and requires the check to name it.
func TestCheckSubscribedCatches(t *testing.T) {
	for _, plant := range []func(s *shieldState){
		func(s *shieldState) { delete(s.docs, urlN(0)) },
		func(s *shieldState) { delete(s.subs, urlN(0)) },
	} {
		tier := mustTier(t, 2)
		tier.Fetch(urlN(0), "c0")
		plant(tier.owner("c0"))
		if err := tier.CheckSubscribed(); err == nil {
			t.Fatal("a cloud copy outside its shield's books passed the check")
		}
	}
}

// TestSubscribedProperty drives random schedules of fetches, publishes and
// scoped and global purges and requires, after every operation, that every
// copy a cloud holds is subscribed at its owning shield, which holds it —
// the structure that lets every publish reach every copy — and that every
// publish's fan-out books balance.
func TestSubscribedProperty(t *testing.T) {
	const (
		seeds  = 60
		ops    = 300
		docs   = 12
		clouds = 9
	)
	for seed := int64(0); seed < seeds; seed++ {
		tier := mustTier(t, 3)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < ops; op++ {
			url := urlN(rng.Intn(docs))
			cloud := cloudN(rng.Intn(clouds))
			switch k := rng.Intn(10); {
			case k < 5:
				tier.Fetch(url, cloud)
			case k < 8:
				if rep := tier.Publish(url); rep.ShieldMessages != rep.CloudsRefreshed+rep.SubsPruned {
					t.Fatalf("seed %d op %d: fan-out books don't balance: %+v", seed, op, rep)
				}
			case k < 9:
				tier.PurgeCloud(url, cloud)
			default:
				tier.PurgeGlobal(url)
			}
			if err := tier.CheckSubscribed(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}
