package hashing

import (
	"fmt"
	"testing"

	"cachecloud/internal/document"
)

// TestBeaconForTenant checks that tenant folding (document.TenantKey)
// threads through the consistent-hash baseline: the default tenant resolves
// identically to the unscoped call, and distinct tenants spread the same
// URL independently (over many URLs at least one assignment must differ —
// the fold really changes the hashed identity).
func TestBeaconForTenant(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3", "n4"}
	a := NewConsistent(nodes, 50)
	t.Run("consistent", func(t *testing.T) {
		diverged := false
		for i := 0; i < 200; i++ {
			url := fmt.Sprintf("http://cloud/doc/%03d", i)
			plain, err := a.BeaconFor(url)
			if err != nil {
				t.Fatal(err)
			}
			def, err := a.BeaconFor(document.TenantKey("", url))
			if err != nil {
				t.Fatal(err)
			}
			if def != plain {
				t.Fatalf("default tenant diverged for %q: %s vs %s", url, def, plain)
			}
			scoped, err := a.BeaconFor(document.TenantKey("acme", url))
			if err != nil {
				t.Fatal(err)
			}
			if scoped != plain {
				diverged = true
			}
		}
		if !diverged {
			t.Fatal("tenant fold never changed any assignment — tenant not part of the hash")
		}
	})
}
