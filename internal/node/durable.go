package node

import (
	"context"
	"path/filepath"

	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/obs"
)

// initDurable opens the node's durable tier when the cluster config names
// a store directory, replays the recovered index into the in-memory
// cache, compacts the log to the set that actually survived admission
// (capacity may have shrunk since the last run), and only then attaches
// the persist-on-admit hook — so recovery itself is never re-appended.
//
// A node that recovers at least one entry boots warm; the caller is
// expected to follow up with WarmRevalidate once the cluster is reachable
// so stale recovered copies are dropped via the beacons' /reconcile
// verdicts instead of being served.
func (n *CacheNode) initDurable() error {
	if n.cfg.StoreDir == "" {
		return nil
	}
	dir := filepath.Join(n.cfg.StoreDir, n.name)
	st, err := durable.Open(dir, durable.Options{
		Fsync:  durable.ParseFsync(n.cfg.Fsync),
		Tracer: n.cfg.Tracer,
	})
	if err != nil {
		return err
	}
	n.durable = st
	now := n.now()
	for _, e := range st.Entries() {
		// Oversized-for-this-budget entries are skipped; capacity
		// evictions during the load are fine — the log is compacted to
		// the survivors below.
		_, _ = n.store.Put(document.Copy{Doc: e.Doc, FetchedAt: e.FetchedAt}, now)
	}
	var kept []durable.Entry
	for _, url := range n.store.Documents() {
		if cp, ok := n.store.Peek(url); ok {
			kept = append(kept, durable.Entry{Doc: cp.Doc, FetchedAt: cp.FetchedAt})
			if n.shieldRouter != nil {
				// Which recovered copies still have a shield subscription
				// died with the old process (degraded marks live in memory,
				// and shields prune while a cloud is away): let the first
				// reconcile pass re-attach every one.
				n.degradedURLs[url] = true
			}
		}
	}
	if err := st.Reset(kept); err != nil {
		_ = st.Close()
		return err
	}
	n.store.SetDurable(st)
	n.warmRecovered = len(kept)
	n.warmBoot = len(kept) > 0
	if n.warmBoot && n.cfg.Tracer != nil {
		n.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.EvWarmBoot, Node: n.name, Count: int64(len(kept))})
	}
	n.initDurableMetrics()
	return nil
}

// initDurableMetrics registers durable-tier gauges onto the node's
// registry (called after initMetrics).
func (n *CacheNode) initDurableMetrics() {
	if n.reg == nil || n.durable == nil {
		return
	}
	n.reg.GaugeFunc("store_segments", func() float64 { return float64(n.durable.Stats().Segments) })
	n.reg.GaugeFunc("store_bytes", func() float64 { return float64(n.durable.Stats().TotalBytes) })
	n.reg.GaugeFunc("store_dead_bytes", func() float64 { return float64(n.durable.Stats().DeadBytes) })
	n.reg.GaugeFunc("store_truncations_total", func() float64 { return float64(n.durable.Stats().Truncations) })
	n.reg.GaugeFunc("store_compactions_total", func() float64 { return float64(n.durable.Stats().Compactions) })
	n.reg.GaugeFunc("warm_boot", func() float64 {
		if n.warmBoot {
			return 1
		}
		return 0
	})
	n.reg.GaugeFunc("warm_recovered", func() float64 { return float64(n.warmRecovered) })
	n.reg.GaugeFunc("warm_revalidated_total", func() float64 { return float64(n.warmRevalidated.Load()) })
	n.reg.GaugeFunc("warm_dropped_total", func() float64 { return float64(n.warmDropped.Load()) })
	n.reg.GaugeFunc("durable_errors_total", func() float64 { return float64(n.store.DurableErrors()) })
}

// WarmRevalidate runs the warm-restart revalidation pass: every recovered
// copy is reported to its beacon through the existing /reconcile
// anti-entropy path. Copies the beacon rules stale are dropped from the
// cache — and tombstoned in the log through the durable hook — while
// fresh copies are re-registered as held, all without a single origin
// fetch. Returns how many copies were confirmed fresh and how many were
// dropped as stale. Safe (and a no-op) on a cold or memory-only node.
func (n *CacheNode) WarmRevalidate(ctx context.Context) (kept, dropped int) {
	if !n.warmBoot {
		return 0, 0
	}
	reported, dropped := n.Reconcile(ctx)
	kept = reported - dropped
	n.warmRevalidated.Add(int64(kept))
	n.warmDropped.Add(int64(dropped))
	return kept, dropped
}

// WarmBootInfo reports whether this node booted warm and how many entries
// the durable tier recovered into the cache.
func (n *CacheNode) WarmBootInfo() (warm bool, recovered int) {
	return n.warmBoot, n.warmRecovered
}

// DurableStats returns the durable tier's accounting snapshot; ok is
// false for memory-only nodes.
func (n *CacheNode) DurableStats() (durable.Stats, bool) {
	if n.durable == nil {
		return durable.Stats{}, false
	}
	return n.durable.Stats(), true
}

// Close waits out the background drop flush, if one is running, closes the
// connections the node serves and the idle ones it holds to the
// cluster's addresses, then detaches and seals the durable tier (nothing to
// seal on memory-only nodes). Call it on shutdown — and before reopening the
// same store directory in a replacement node.
func (n *CacheNode) Close() error {
	n.stopFlush()
	n.served.close(nil)
	closeIdlePeerConns(n.cfg)
	if n.durable == nil {
		return nil
	}
	n.store.SetDurable(nil)
	return n.durable.Close()
}
