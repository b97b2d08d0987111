package cache

import (
	"errors"
	"fmt"
	"maps"
	"sort"

	"cachecloud/internal/document"
)

// ErrTenantQuota is returned when a document cannot fit inside its
// tenant's resident-byte quota (the document alone exceeds the quota, so
// no amount of same-tenant eviction can admit it).
var ErrTenantQuota = errors.New("cache: document exceeds tenant quota")

// TenantQuotas answers per-tenant resident-byte caps; implemented by
// *tenant.Registry. ByteQuota returns 0 for tenants without a cap.
// Keeping it an interface here leaves the cache package free of tenant
// policy concerns.
type TenantQuotas interface {
	ByteQuota(tenant string) int64
}

// SetTenantQuotas attaches (or, with nil, detaches) the per-tenant quota
// table. Quotas are enforced on every Put/ApplyUpdate from then on;
// entries already over a newly attached (or shrunk) quota are reclaimed
// by the tenant's next Put or the next EnforceTenantQuotas sweep.
func (c *Cache) SetTenantQuotas(q TenantQuotas) {
	c.mu.Lock()
	c.quotas = q
	c.mu.Unlock()
}

// tenantOf extracts the tenant from a stored key. Caller holds mu or
// needs no lock (pure function).
func tenantOf(key string) string {
	t, _ := document.SplitTenantKey(key)
	return t
}

// noteTenantBytes adjusts the tenant's resident-byte accounting by
// delta. Caller holds mu.
func (c *Cache) noteTenantBytes(tenant string, delta int64) {
	if delta == 0 {
		return // an update or a store of the same size
	}
	if c.tenantUsed == nil {
		c.tenantUsed = make(map[string]int64)
	}
	next := c.tenantUsed[tenant] + delta
	if next <= 0 {
		delete(c.tenantUsed, tenant)
		return
	}
	c.tenantUsed[tenant] = next
}

// tenantQuotaOf returns the byte quota applying to the tenant (0 =
// uncapped). Caller holds mu.
func (c *Cache) tenantQuotaOf(tenant string) int64 {
	if c.quotas == nil {
		return 0
	}
	return c.quotas.ByteQuota(tenant)
}

// makeTenantRoom evicts the tenant's own entries — in replacement-policy
// order, never the protected slot — until the tenant fits its quota.
// Tenant-fair eviction: one tenant going over its cap reclaims only its
// own documents; other tenants' working sets are untouched. Each victim
// comes from the policy's sub-order for the tenant, so an eviction costs
// the same whatever the other tenants store. Caller holds mu.
func (c *Cache) makeTenantRoom(tenant string, quota int64, protect *slot, now int64) []document.Document {
	if quota <= 0 {
		return nil
	}
	var evicted []document.Document
	for c.tenantUsed[tenant] > quota {
		victim := c.policy.tenantVictim(tenant, protect)
		if victim == nil {
			break // only the protected entry remains for this tenant
		}
		evicted = append(evicted, c.evict(victim, now))
	}
	if len(evicted) > 0 {
		c.quotaEvictions[tenant] += int64(len(evicted))
	}
	return evicted
}

// EnforceTenantQuotas sweeps every tenant back under its current quota —
// the reclamation pass after a quota shrinks below a tenant's residency.
// It returns the evicted documents so the caller can deregister them.
func (c *Cache) EnforceTenantQuotas(now int64) []document.Document {
	c.mu.Lock()
	tenants := make([]string, 0, len(c.tenantUsed))
	for t := range c.tenantUsed {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants) // deterministic sweep order
	var evicted []document.Document
	for _, t := range tenants {
		evicted = append(evicted, c.makeTenantRoom(t, c.tenantQuotaOf(t), nil, now)...)
	}
	c.unlock()
	return evicted
}

// TenantUsed returns the tenant's resident bytes.
func (c *Cache) TenantUsed(tenant string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenantUsed[tenant]
}

// TenantUsage returns a snapshot of resident bytes per tenant (only
// tenants with resident entries appear).
func (c *Cache) TenantUsage() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.tenantUsed))
	for t, b := range c.tenantUsed {
		out[t] = b
	}
	return out
}

// TenantQuotaEvictions returns how many documents each tenant has evicted
// to stay inside its byte quota (only tenants that evicted appear): a
// tenant whose count climbs with its requests is thrashing against its cap.
func (c *Cache) TenantQuotaEvictions() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.quotaEvictions)
}

// checkTenantFit rejects a document whose size alone exceeds its
// tenant's quota. Caller holds mu.
func (c *Cache) checkTenantFit(tenant string, size int64) error {
	if quota := c.tenantQuotaOf(tenant); quota > 0 && size > quota {
		return fmt.Errorf("%w: tenant %q document is %dB, quota %dB", ErrTenantQuota, tenant, size, quota)
	}
	return nil
}
