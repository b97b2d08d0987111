package cache

import (
	"fmt"
	"testing"

	"cachecloud/internal/document"
)

// The store's ladder rows as micro-benchmarks (benchmark/ladder.go times the
// same three calls as cache.get_ns, cache.put_evict_ns and
// cache.apply_update_ns): a hit, a store that evicts, an update in place.
// BenchmarkCacheMiss, a miss among monitored URLs, has no ladder row.

var benchSink int64

// benchResident returns a cache holding n tenant-folded documents and their
// copies.
func benchResident(b *testing.B, capacity int64, n int) (*Cache, []document.Copy) {
	b.Helper()
	c := New("bench", capacity)
	copies := make([]document.Copy, n)
	for i := range copies {
		url := document.TenantKey("acme", fmt.Sprintf("http://bench/doc/%05d", i))
		copies[i] = document.Copy{Doc: document.Document{URL: url, Size: 1000, Version: 1}}
		if _, err := c.Put(copies[i], 0); err != nil {
			b.Fatal(err)
		}
	}
	return c, copies
}

// BenchmarkCacheGet is a hit among 10k resident documents. The keys are
// walked with a stride, so successive hits land on slots stored far apart.
func BenchmarkCacheGet(b *testing.B) {
	c, copies := benchResident(b, 0, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, _ := c.Get(copies[(i*7919)%len(copies)].Doc.URL, int64(i>>16))
		benchSink += cp.Doc.Size
	}
}

// BenchmarkCacheMiss is a miss among 10k URLs that have each been asked for
// once and never stored: the miss finds its URL's monitor and observes the
// access.
func BenchmarkCacheMiss(b *testing.B) {
	c := New("bench", 0)
	urls := make([]string, 10000)
	for i := range urls {
		urls[i] = document.TenantKey("acme", fmt.Sprintf("http://bench/doc/%05d", i))
		c.Get(urls[i], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(urls[(i*7919)%len(urls)], int64(i>>16)); ok {
			b.Fatal("a URL never stored was found")
		}
	}
}

// BenchmarkCachePutEvict is steady-state churn at capacity: 10k documents
// fill the byte budget and every store of another evicts the coldest. The
// one allocation left is the evicted list the caller is handed.
func BenchmarkCachePutEvict(b *testing.B) {
	c, _ := benchResident(b, 10000*1000, 10000)
	pool := make([]document.Copy, 1<<15)
	for i := range pool {
		url := document.TenantKey("acme", fmt.Sprintf("http://bench/new/%05d", i))
		pool[i] = document.Copy{Doc: document.Document{URL: url, Size: 1000, Version: 1}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := c.Put(pool[i%len(pool)], int64(i>>16))
		if err != nil || len(ev) != 1 {
			b.Fatalf("put evicted %v, err %v; want one victim", ev, err)
		}
		benchSink += ev[0].Size
	}
}

// BenchmarkCacheApplyUpdate refreshes a resident document to a newer
// version of the same size.
func BenchmarkCacheApplyUpdate(b *testing.B) {
	c, copies := benchResident(b, 0, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := copies[(i*7919)%len(copies)].Doc
		doc.Version = document.Version(i + 2)
		if c.ApplyUpdate(doc, int64(i>>16)) {
			benchSink++
		}
	}
}
