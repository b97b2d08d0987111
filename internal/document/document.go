// Package document defines the dynamic-document model shared by every other
// package in the repository, together with the hash functions the paper uses
// to map documents onto beacon rings and intra-ring hash (IrH) values.
//
// The paper (Section 2.2) hashes a document's URL with MD5 and reduces the
// digest modulo the intra-ring hash generator (IntraGen) to obtain the IrH
// value, and modulo the number of beacon rings to pick the ring. Both
// reductions are implemented here so that every component — simulator, live
// node, and tests — agrees byte-for-byte on where a document lives.
package document

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
)

// Version identifies a revision of a document. The origin server increments
// it on every update; caches use it to decide whether a copy is stale.
type Version uint64

// Document is a dynamic web document as modelled by the paper: a URL
// (its identity), a payload size in bytes, and a monotonically increasing
// version stamped by the origin server.
type Document struct {
	// URL uniquely identifies the document. All hashing is over this string.
	URL string `json:"url"`
	// Size is the payload size in bytes. It drives the network-cost model
	// and the disk-space accounting in edge caches.
	Size int64 `json:"size"`
	// Version is the revision written by the origin server.
	Version Version `json:"version"`
}

// Copy is a cached replica of a document held by one edge cache.
type Copy struct {
	Doc Document
	// FetchedAt is the simulation time unit (or wall-clock second for live
	// nodes) at which the copy was stored.
	FetchedAt int64
}

// Stale reports whether the copy is older than the given version.
func (c Copy) Stale(v Version) bool { return c.Doc.Version < v }

// Hash is the 64-bit document hash derived from the leading bytes of the
// MD5 digest of the URL. Both the ring hash and the IrH value are reductions
// of this single value, mirroring the paper's use of one MD5 invocation.
type Hash uint64

// HashURL computes the document hash for a URL.
func HashURL(url string) Hash {
	sum := md5.Sum([]byte(url))
	return Hash(binary.BigEndian.Uint64(sum[:8]))
}

// TenantSep separates the tenant ID from the URL inside a tenant-scoped
// key. The unit separator cannot appear in a valid tenant ID (see
// internal/tenant's ValidID) and never appears in well-formed URLs, which
// makes TenantKey injective: no (tenant, url) pair collides with another.
const TenantSep = "\x1f"

// TenantKey folds a tenant ID into a document URL, producing the scoped
// key all per-tenant cache, record, and hash operations use. The empty
// tenant (the default tenant) maps to the URL unchanged, so single-tenant
// deployments hash, store, and serialize exactly as before.
func TenantKey(tenant, url string) string {
	if tenant == "" {
		return url
	}
	return tenant + TenantSep + url
}

// SplitTenantKey inverts TenantKey: a key carrying a tenant prefix splits
// into (tenant, url); any other key belongs to the default tenant.
func SplitTenantKey(key string) (tenant, url string) {
	for i := 0; i < len(key); i++ {
		if key[i] == TenantSep[0] {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}

// RingIndex maps the hash onto one of numRings beacon rings using the
// static random hash of the paper's two-step beacon discovery process.
func (h Hash) RingIndex(numRings int) int {
	if numRings <= 0 {
		return 0
	}
	return int(h % Hash(numRings))
}

// IrH reduces the hash modulo the intra-ring hash generator, yielding the
// document's intra-ring hash value in [0, intraGen).
func (h Hash) IrH(intraGen int) int {
	if intraGen <= 0 {
		return 0
	}
	// Mix the hash before reducing so that RingIndex and IrH are not
	// correlated for small moduli with a common factor.
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(intraGen))
}

// String implements fmt.Stringer for diagnostics.
func (d Document) String() string {
	return fmt.Sprintf("%s v%d (%dB)", d.URL, d.Version, d.Size)
}
