package tenant

import (
	"fmt"
	"math/rand"
	"testing"

	"cachecloud/internal/document"
)

// TestTenantKeyDisjointness is the cross-tenant key-space property test:
// for random tenants and URLs, the folded key of one tenant, and its hash,
// can never equal another tenant's, and Split is the exact inverse of Key.
// This is the invariant that makes cross-tenant cache poisoning
// structurally impossible — no two tenants can collide on a record.
func TestTenantKeyDisjointness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tenants := []string{Default, "acme", "globex", "initech", "t-99", "ACME"}
	seen := make(map[string]struct{ tenant, url string })
	hashed := make(map[document.Hash]string)
	for i := 0; i < 20000; i++ {
		tid := tenants[rng.Intn(len(tenants))]
		url := fmt.Sprintf("http://cloud/doc/%03d", rng.Intn(400))
		key := Key(tid, url)
		gt, gu := Split(key)
		if gt != tid || gu != url {
			t.Fatalf("Split(Key(%q,%q)) = (%q,%q)", tid, url, gt, gu)
		}
		h := document.HashURL(key)
		if prev, dup := hashed[h]; dup && prev != key {
			t.Fatalf("hash collision: keys %q and %q", prev, key)
		}
		hashed[h] = key
		if prev, dup := seen[key]; dup && (prev.tenant != tid || prev.url != url) {
			t.Fatalf("key collision: (%q,%q) and (%q,%q) share key %q", prev.tenant, prev.url, tid, url, key)
		}
		seen[key] = struct{ tenant, url string }{tid, url}
	}
	// The default tenant folds to the URL unchanged — byte-identical
	// hashing for single-tenant deployments.
	if Key(Default, "http://cloud/doc/001") != "http://cloud/doc/001" {
		t.Fatal("default tenant key must be the unscoped URL")
	}
	if document.HashURL(Key(Default, "u")) != document.HashURL("u") {
		t.Fatal("default tenant hash must equal the unscoped hash")
	}
}

func TestValidID(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{Default, true},
		{"acme", true},
		{"t-1.2_x", true},
		{"has" + document.TenantSep + "sep", false},
		{"ctrl\nchar", false},
		{"del\x7f", false},
		{string(make([]byte, 65)), false},
	} {
		if got := ValidID(tc.id); got != tc.ok {
			t.Errorf("ValidID(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}
}

// TestQuotaLaws covers the quota-law edge cases table-driven: zero-quota
// tenants, a single tenant owning 100% of the weight, and share math
// under mixed weights.
func TestQuotaLaws(t *testing.T) {
	const capacity = 64
	cases := []struct {
		name   string
		quotas map[string]Quota
		id     string
		share  int
	}{
		{"unregistered tenant is unconstrained", map[string]Quota{"a": {Weight: 1}}, "b", capacity},
		{"zero-weight tenant gets nothing", map[string]Quota{"a": {Weight: 0}, "b": {Weight: 4}}, "a", 0},
		{"single tenant owns 100% weight", map[string]Quota{"solo": {Weight: 7}}, "solo", capacity},
		{"equal weights split evenly", map[string]Quota{"a": {Weight: 1}, "b": {Weight: 1}}, "a", capacity / 2},
		{"weighted 3:1 split", map[string]Quota{"big": {Weight: 3}, "small": {Weight: 1}}, "big", capacity * 3 / 4},
		{"tiny weight floors at one", map[string]Quota{"tiny": {Weight: 1}, "huge": {Weight: 1000}}, "tiny", 1},
		{"all weights zero leaves registry total zero", map[string]Quota{"a": {Weight: 0}}, "a", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := NewRegistry(tc.quotas)
			if err != nil {
				t.Fatal(err)
			}
			fs := NewFairShare(reg, capacity)
			if got := fs.Share(tc.id); got != tc.share {
				t.Fatalf("Share(%q) = %d, want %d", tc.id, got, tc.share)
			}
		})
	}
}

// TestFairShareAcquire exercises the admission mechanics: shares are
// enforced exactly, zero-weight tenants shed everything, and releases
// return budget.
func TestFairShareAcquire(t *testing.T) {
	reg, err := NewRegistry(map[string]Quota{
		"victim": {Weight: 3},
		"aggr":   {Weight: 1},
		"banned": {Weight: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFairShare(reg, 16)

	if _, ok := fs.TryAcquire("banned"); ok {
		t.Fatal("zero-weight tenant must shed")
	}
	aggrShare := fs.Share("aggr") // 16*1/4 = 4
	if aggrShare != 4 {
		t.Fatalf("aggr share = %d, want 4", aggrShare)
	}
	var releases []func()
	for i := 0; i < aggrShare; i++ {
		rel, ok := fs.TryAcquire("aggr")
		if !ok {
			t.Fatalf("aggr acquisition %d refused below share", i)
		}
		releases = append(releases, rel)
	}
	if _, ok := fs.TryAcquire("aggr"); ok {
		t.Fatal("aggr admitted over its share")
	}
	// The victim still has its full share available.
	for i := 0; i < fs.Share("victim"); i++ {
		if rel, ok := fs.TryAcquire("victim"); !ok {
			t.Fatalf("victim refused at %d while aggressor saturated", i)
		} else {
			defer rel()
		}
	}
	// Release returns budget; double release is a no-op.
	releases[0]()
	releases[0]()
	if got := fs.InFlight("aggr"); got != aggrShare-1 {
		t.Fatalf("aggr inflight after release = %d, want %d", got, aggrShare-1)
	}
	if rel, ok := fs.TryAcquire("aggr"); !ok {
		t.Fatal("aggr refused after release freed a unit")
	} else {
		rel()
	}
}

// TestRegistryChurn covers tenant add/remove mid-churn: shares rebalance
// as tenants come and go, removal lifts all constraints, and the cached
// total weight stays consistent through updates.
func TestRegistryChurn(t *testing.T) {
	reg, err := NewRegistry(nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFairShare(reg, 60)
	if fs.Share("a") != 60 {
		t.Fatal("empty registry must leave tenants unconstrained")
	}
	if err := reg.Set("a", Quota{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if fs.Share("a") != 60 {
		t.Fatal("sole tenant owns the full capacity")
	}
	if err := reg.Set("b", Quota{Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if fs.Share("a") != 20 || fs.Share("b") != 40 {
		t.Fatalf("shares after add = (%d, %d), want (20, 40)", fs.Share("a"), fs.Share("b"))
	}
	// Update in place: total weight must not double-count.
	if err := reg.Set("b", Quota{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if reg.TotalWeight() != 2 || fs.Share("a") != 30 {
		t.Fatalf("after update: total=%d share(a)=%d", reg.TotalWeight(), fs.Share("a"))
	}
	reg.Remove("b")
	reg.Remove("b") // idempotent
	if reg.TotalWeight() != 1 || fs.Share("a") != 60 || fs.Share("b") != 60 {
		t.Fatalf("after remove: total=%d share(a)=%d share(b)=%d", reg.TotalWeight(), fs.Share("a"), fs.Share("b"))
	}
	if got := reg.IDs(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("IDs = %v", got)
	}
	if reg.ByteQuota("a") != 0 || reg.ByteQuota("missing") != 0 {
		t.Fatal("uncapped and unknown tenants report zero byte quota")
	}
	if err := reg.Set("bad\x1fid", Quota{}); err == nil {
		t.Fatal("invalid tenant ID accepted")
	}
	if err := reg.Set("neg", Quota{Weight: -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestRegistryAccessors covers the snapshot/introspection surface and
// the constructor's rejection of invalid seeds.
func TestRegistryAccessors(t *testing.T) {
	if _, err := NewRegistry(map[string]Quota{"bad\x1fid": {Weight: 1}}); err == nil {
		t.Fatal("NewRegistry accepted an invalid tenant ID")
	}
	reg, err := NewRegistry(map[string]Quota{
		"a": {Weight: 2, Bytes: 100},
		"b": {Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
	snap := reg.Snapshot()
	if len(snap) != 2 || snap["a"] != (Quota{Weight: 2, Bytes: 100}) || snap["b"] != (Quota{Weight: 1}) {
		t.Fatalf("Snapshot = %+v", snap)
	}
	// The snapshot is a copy: mutating it must not touch the registry.
	snap["a"] = Quota{Weight: 99}
	if q, _ := reg.Get("a"); q.Weight != 2 {
		t.Fatalf("snapshot mutation leaked into registry: %+v", q)
	}

	fs := NewFairShare(reg, 30)
	if fs.Capacity() != 30 {
		t.Fatalf("Capacity = %d", fs.Capacity())
	}
	// A non-positive capacity clamps to 1: progress is always possible.
	clamped := NewFairShare(reg, 0)
	if clamped.Capacity() != 1 {
		t.Fatalf("clamped Capacity = %d", clamped.Capacity())
	}
	if share := clamped.Share("a"); share != 1 {
		t.Fatalf("clamped Share = %d", share)
	}
}
