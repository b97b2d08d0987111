package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
	"cachecloud/internal/tenant"
)

// cluster is one live cache cloud on loopback HTTP inside this process:
// numNodes cache nodes in rings of ringSize, the workload's shields, and
// the origin.
type cluster struct {
	cfg      node.ClusterConfig
	names    []string
	caches   []*node.CacheNode
	shields  []*node.ShieldNode
	origin   *node.OriginNode
	servers  []*httptest.Server
	storeDir string
}

// startCluster assembles the workload's cluster from internal/node's
// public constructors. With a recorder every node's handler and outbound
// transport are wrapped for spans; with nil the nodes run exactly as
// node.StartLocalCluster builds them, so the traced and the plain cluster
// differ by tracing alone. tmpRoot holds the durable tier's directory.
func startCluster(w *workload, catalog []document.Document, rec *recorder, tmpRoot string) (cl *cluster, err error) {
	cl = &cluster{names: nodeNames()}
	defer func() {
		if err != nil {
			cl.Close()
		}
	}()

	cfg := node.ClusterConfig{
		IntraGen:         intraGen,
		UtilityPlacement: w.utility,
		Addrs:            make(map[string]string, numNodes),
	}
	var catalogBytes int64
	for _, d := range catalog {
		catalogBytes += d.Size
	}
	cfg.CapacityBytes = int64(float64(catalogBytes) * w.capacityShare)
	if w.tenants {
		cfg.Tenants = map[string]tenant.Quota{
			"alpha": {Weight: 3},
			"beta":  {Weight: 1, Bytes: int64(float64(catalogBytes) * w.betaQuotaShare)},
		}
	}
	if w.durable {
		if cl.storeDir, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
			return cl, err
		}
		cfg.StoreDir, cfg.Fsync = cl.storeDir, "rotate"
	}
	numRings := numNodes / ringSize
	cfg.Rings = make([][]string, numRings)
	for i, name := range cl.names {
		cfg.Rings[i%numRings] = append(cfg.Rings[i%numRings], name)
	}

	// Reserve every listener first so every node knows every address.
	listen := func() (*httptest.Server, string) {
		srv := httptest.NewUnstartedServer(nil)
		cl.servers = append(cl.servers, srv)
		return srv, "http://" + srv.Listener.Addr().String()
	}
	nodeSrv := make([]*httptest.Server, numNodes)
	for i, name := range cl.names {
		nodeSrv[i], cfg.Addrs[name] = listen()
	}
	originSrv, originAddr := listen()
	cfg.OriginAddr = originAddr
	shieldSrv := make([]*httptest.Server, w.shields)
	if w.shields > 0 {
		cfg.ShieldAddrs = make(map[string]string, w.shields)
	}
	for i := range shieldSrv {
		name := fmt.Sprintf("shield-%d", i)
		cfg.Shields = append(cfg.Shields, name)
		shieldSrv[i], cfg.ShieldAddrs[name] = listen()
	}
	cl.cfg = cfg

	originURL, err := url.Parse(originAddr)
	if err != nil {
		return cl, err
	}
	transport := func() node.Transport {
		if rec == nil {
			return nil // the node's production default
		}
		return node.NewHTTPTransport(node.TransportOptions{Client: &http.Client{
			Transport: &spanTransport{rec: rec, base: http.DefaultTransport, originHost: originURL.Host},
		}})
	}
	serve := func(srv *httptest.Server, role int, h http.Handler) {
		if rec != nil {
			h = rec.middleware(role, h)
		}
		srv.Config.Handler = h
		srv.Start()
	}

	for i, name := range cfg.Shields {
		sn, err := node.NewShieldNodeWithTransport(name, cfg, transport())
		if err != nil {
			return cl, err
		}
		cl.shields = append(cl.shields, sn)
		serve(shieldSrv[i], roleShield, sn.Handler())
	}
	for i, name := range cl.names {
		cn, err := node.NewCacheNodeWithTransport(name, cfg, transport())
		if err != nil {
			return cl, err
		}
		cl.caches = append(cl.caches, cn)
		serve(nodeSrv[i], roleCache, cn.Handler())
	}
	cl.origin, err = node.NewOriginNodeWithTransport(cfg, catalog, transport())
	if err != nil {
		return cl, err
	}
	serve(originSrv, roleOrigin, cl.origin.Handler())
	return cl, nil
}

// Close stops every server (waiting for their connections), seals the
// durable tiers and removes the store directory.
func (cl *cluster) Close() {
	for _, s := range cl.servers {
		s.Close()
	}
	for _, cn := range cl.caches {
		_ = cn.Close()
	}
	for _, sn := range cl.shields {
		_ = sn.Close()
	}
	if cl.storeDir != "" {
		_ = os.RemoveAll(cl.storeDir)
	}
	// Nodes share http.DefaultTransport; drop its connections to the
	// servers just closed so a later cluster never meets them.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// nodeAddrs returns the cache nodes' base URLs in node-index order.
func (cl *cluster) nodeAddrs() []string {
	out := make([]string, len(cl.names))
	for i, n := range cl.names {
		out[i] = cl.cfg.Addrs[n]
	}
	return out
}
