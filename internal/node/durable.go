package node

import (
	"context"
	"path/filepath"

	"cachecloud/internal/durable"
	"cachecloud/internal/obs"
)

// disk is a node's durable tier, the same on both tiers: the store under
// StoreDir/<name> and the ordered queue every mutation reaches it through
// (durable.Queue), so no store call runs under the node's own locks. Both
// are nil on a memory-only node.
type disk struct {
	st *durable.Store
	q  *durable.Queue
}

// open opens the store when the cluster config names a store root and
// registers its gauges on reg.
func (d *disk) open(cfg ClusterConfig, name string, reg *obs.Registry) error {
	if cfg.StoreDir == "" {
		return nil
	}
	fsync, _ := durable.ParseFsync(cfg.Fsync) // check accepted it
	st, err := durable.Open(filepath.Join(cfg.StoreDir, name), durable.Options{
		Fsync:  fsync,
		Tracer: cfg.Tracer,
	})
	if err != nil {
		return err
	}
	d.st, d.q = st, durable.NewQueue(st)
	reg.GaugeFunc("store_segments", func() float64 { return float64(d.st.Stats().Segments) })
	reg.GaugeFunc("store_bytes", func() float64 { return float64(d.st.Stats().TotalBytes) })
	reg.GaugeFunc("store_dead_bytes", func() float64 { return float64(d.st.Stats().DeadBytes) })
	reg.GaugeFunc("store_truncations_total", func() float64 { return float64(d.st.Stats().Truncations) })
	reg.GaugeFunc("store_compactions_total", func() float64 { return float64(d.st.Stats().Compactions) })
	reg.GaugeFunc("durable_errors_total", func() float64 { return float64(d.q.Errors()) })
	return nil
}

// close writes what is queued, then seals the store.
func (d *disk) close() error {
	if d.st == nil {
		return nil
	}
	d.q.Close()
	return d.st.Close()
}

// initDurable opens the node's durable tier when the cluster config names
// a store directory, replays the recovered index into the in-memory
// cache, compacts the log to the set that actually survived admission
// (capacity may have shrunk since the last run), and only then attaches
// the queue — so recovery itself is never re-appended.
//
// A node that recovers at least one entry boots warm; the caller is
// expected to follow up with WarmRevalidate once the cluster is reachable
// so stale recovered copies are dropped via the beacons' /reconcile
// verdicts instead of being served.
func (n *CacheNode) initDurable() error {
	if err := n.disk.open(n.cfg, n.name, n.reg); err != nil || n.disk.st == nil {
		return err
	}
	st := n.disk.st
	now := n.now()
	for _, e := range st.Entries() {
		// Oversized-for-this-budget entries are skipped; capacity
		// evictions during the load are fine — the log is compacted to
		// the survivors below.
		_, _ = n.store.Put(e, now)
	}
	var kept []durable.Entry
	for _, url := range n.store.Documents() {
		if cp, ok := n.store.Peek(url); ok {
			kept = append(kept, cp)
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
	n.store.SetDurable(n.disk.q)
	n.warmRecovered = len(kept)
	n.warmBoot = len(kept) > 0
	if n.warmBoot && n.cfg.Tracer != nil {
		n.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.EvWarmBoot, Node: n.name, Count: int64(len(kept))})
	}
	n.reg.GaugeFunc("warm_boot", func() float64 {
		if n.warmBoot {
			return 1
		}
		return 0
	})
	n.reg.GaugeFunc("warm_recovered", func() float64 { return float64(n.warmRecovered) })
	n.reg.GaugeFunc("warm_revalidated_total", func() float64 { return float64(n.warmRevalidated.Load()) })
	n.reg.GaugeFunc("warm_dropped_total", func() float64 { return float64(n.warmDropped.Load()) })
	return nil
}

// WarmRevalidate runs the warm-restart revalidation pass: every recovered
// copy is reported to its beacon through the existing /reconcile
// anti-entropy path. Copies the beacon rules stale are dropped from the
// cache — and tombstoned in the log through the durable queue — while
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

// Close waits out the background drop flush, if one is running, closes the
// connections the node serves and the idle ones it holds to the
// cluster's addresses, then writes what the durable tier has queued and
// seals it (nothing to seal on memory-only nodes). Call it on shutdown — and
// before reopening the same store directory in a replacement node.
func (n *CacheNode) Close() error {
	n.stopFlush()
	n.served.close(nil)
	closeIdlePeerConns(n.cfg)
	return n.disk.close()
}
