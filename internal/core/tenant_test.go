package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cachecloud/internal/document"
)

// TestTenantRecordDisjointness drives random holder registrations and
// updates over tenant-scoped keys (document.TenantKey) through the core
// and checks that lookups never leak across tenants: each tenant's holder
// lists and versions match an independent per-tenant model map, and the
// default tenant's view equals the unscoped API's view.
func TestTenantRecordDisjointness(t *testing.T) {
	ids := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"}
	c, err := New(Config{NumRings: 5, IntraGen: 1000}, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"", "acme", "globex", "initech"}
	type model struct {
		holders map[string]map[string]bool // url → holder set
		version map[string]document.Version
	}
	models := make(map[string]*model, len(tenants))
	for _, tid := range tenants {
		models[tid] = &model{holders: map[string]map[string]bool{}, version: map[string]document.Version{}}
	}
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 4000; step++ {
		tid := tenants[rng.Intn(len(tenants))]
		url := fmt.Sprintf("http://cloud/doc/%03d", rng.Intn(60))
		key := document.TenantKey(tid, url)
		m := models[tid]
		switch rng.Intn(3) {
		case 0:
			holder := ids[rng.Intn(len(ids))]
			// A registered holder must really hold the copy — the update
			// fan-out prunes holders whose caches lack it.
			cp := document.Copy{Doc: document.Document{URL: key, Size: 100, Version: m.version[url]}, FetchedAt: int64(step)}
			if _, err := c.Cache(holder).Put(cp, int64(step)); err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterHolder(key, holder); err != nil {
				t.Fatal(err)
			}
			if m.holders[url] == nil {
				m.holders[url] = map[string]bool{}
			}
			m.holders[url][holder] = true
		case 1:
			v := m.version[url] + 1
			res, err := c.Update(document.Document{URL: key, Size: 100, Version: v}, int64(step))
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range res.Notified {
				if !m.holders[url][h] {
					t.Fatalf("tenant %q url %q: update fanned out to foreign holder %q", tid, url, h)
				}
			}
			m.version[url] = v
		case 2:
			res, err := c.Lookup(key, int64(step))
			if err != nil {
				t.Fatal(err)
			}
			if res.Version != m.version[url] {
				t.Fatalf("tenant %q url %q: version %d, model %d", tid, url, res.Version, m.version[url])
			}
			want := m.holders[url]
			if len(res.Holders) != len(want) {
				t.Fatalf("tenant %q url %q: holders %v, model %v", tid, url, res.Holders, want)
			}
			for _, h := range res.Holders {
				if !want[h] {
					t.Fatalf("tenant %q url %q: foreign holder %q leaked in", tid, url, h)
				}
			}
		}
	}
	// Default tenant's scoped view must be the unscoped view.
	for url, want := range models[""].version {
		res, err := c.Lookup(url, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != want {
			t.Fatalf("unscoped lookup of %q: version %d, model %d", url, res.Version, want)
		}
	}
}
