package node

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"cachecloud/internal/document"
)

// LocalCluster boots a complete live cluster in-process using
// httptest servers — used by the integration tests, the livecluster
// example, and anyone who wants a self-contained demo without separate
// processes.
type LocalCluster struct {
	Cfg     ClusterConfig
	Origin  *OriginNode
	Caches  map[string]*CacheNode
	Shields map[string]*ShieldNode
	servers []*httptest.Server
	byName  map[string]*httptest.Server
}

// TransportFactory builds the outbound transport for a named cluster
// participant; the origin node asks for "origin". Returning nil selects
// the production default for that participant.
type TransportFactory func(name string) Transport

// StartLocalCluster creates nodeNames cache nodes arranged into rings of
// ringSize beacon points plus one origin node, all listening on loopback.
func StartLocalCluster(nodeNames []string, ringSize int, docs []document.Document, opts ClusterConfig) (*LocalCluster, error) {
	return StartLocalClusterWith(nodeNames, ringSize, docs, opts, nil)
}

// StartLocalClusterWith is StartLocalCluster with per-node transport
// injection (the chaos tests wire every node through one seeded fault
// plane this way).
func StartLocalClusterWith(nodeNames []string, ringSize int, docs []document.Document, opts ClusterConfig, mk TransportFactory) (*LocalCluster, error) {
	if ringSize < 1 {
		ringSize = 2
	}
	if len(nodeNames) < ringSize {
		return nil, fmt.Errorf("node: %d nodes cannot form rings of %d", len(nodeNames), ringSize)
	}
	// Every setting comes from opts; the layout and the addresses are the
	// cluster's own.
	cfg := opts
	cfg.Addrs = make(map[string]string, len(nodeNames))
	cfg.ShieldAddrs = nil
	if len(cfg.Shields) > 0 {
		cfg.ShieldAddrs = make(map[string]string, len(cfg.Shields))
	}
	if cfg.IntraGen == 0 {
		cfg.IntraGen = 1000
	}
	numRings := len(nodeNames) / ringSize
	if numRings < 1 {
		numRings = 1
	}
	cfg.Rings = make([][]string, numRings)
	for i, name := range nodeNames {
		r := i % numRings
		cfg.Rings[r] = append(cfg.Rings[r], name)
	}

	lc := &LocalCluster{
		Cfg:    cfg,
		Caches: make(map[string]*CacheNode, len(nodeNames)),
		byName: make(map[string]*httptest.Server, len(nodeNames)),
	}

	// Reserve listeners first so every node knows every address.
	type pending struct {
		name string
		srv  *httptest.Server
	}
	var pendings []pending
	for _, name := range nodeNames {
		srv := httptest.NewUnstartedServer(nil)
		cfg.Addrs[name] = "http://" + srv.Listener.Addr().String()
		pendings = append(pendings, pending{name: name, srv: srv})
		lc.servers = append(lc.servers, srv)
		lc.byName[name] = srv
	}
	originSrv := httptest.NewUnstartedServer(nil)
	cfg.OriginAddr = "http://" + originSrv.Listener.Addr().String()
	lc.servers = append(lc.servers, originSrv)

	// Shield-tier listeners are reserved before any node is constructed so
	// the cache nodes' shield routers see the full address map.
	var shieldPendings []pending
	for _, name := range cfg.Shields {
		srv := httptest.NewUnstartedServer(nil)
		cfg.ShieldAddrs[name] = "http://" + srv.Listener.Addr().String()
		shieldPendings = append(shieldPendings, pending{name: name, srv: srv})
		lc.servers = append(lc.servers, srv)
		lc.byName[name] = srv
	}
	if len(cfg.Shields) > 0 {
		lc.Shields = make(map[string]*ShieldNode, len(cfg.Shields))
	}
	for _, p := range shieldPendings {
		var tp Transport
		if mk != nil {
			tp = mk(p.name)
		}
		sn, err := NewShieldNodeWithTransport(p.name, cfg, tp)
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.Shields[p.name] = sn
		p.srv.Config.Handler = sn.Handler()
		p.srv.Start()
	}

	for _, p := range pendings {
		var tp Transport
		if mk != nil {
			tp = mk(p.name)
		}
		cn, err := NewCacheNodeWithTransport(p.name, cfg, tp)
		if err != nil {
			lc.Close()
			return nil, err
		}
		lc.Caches[p.name] = cn
		p.srv.Config.Handler = cn.Handler()
		p.srv.Start()
	}
	var originTP Transport
	if mk != nil {
		originTP = mk("origin")
	}
	on, err := NewOriginNodeWithTransport(cfg, docs, originTP)
	if err != nil {
		lc.Close()
		return nil, err
	}
	lc.Origin = on
	originSrv.Config.Handler = on.Handler()
	originSrv.Start()
	lc.Cfg = cfg
	return lc, nil
}

// StopNode kills one cache node's or shield's server, simulating a crash:
// the connections it serves from its own loop go with the server's.
// Returns false if the node is unknown or already stopped.
func (lc *LocalCluster) StopNode(name string) bool {
	srv, ok := lc.byName[name]
	if !ok {
		return false
	}
	srv.Close()
	if cn := lc.Caches[name]; cn != nil {
		cn.served.close(nil)
	} else if sn := lc.Shields[name]; sn != nil {
		sn.served.close(nil)
	}
	delete(lc.byName, name)
	return true
}

// RestartNode brings a stopped node back on its original address with a
// freshly constructed CacheNode — when the cluster config names a
// StoreDir the replacement boots warm from the crashed node's log.
func (lc *LocalCluster) RestartNode(name string, mk TransportFactory) (*CacheNode, error) {
	return restart(lc, lc.Caches, lc.Cfg.Addrs, name, mk, NewCacheNodeWithTransport)
}

// RestartShield brings a stopped shield back on its original address with
// a freshly constructed ShieldNode — with a StoreDir configured it boots
// warm from the crashed shield's durable log.
func (lc *LocalCluster) RestartShield(name string, mk TransportFactory) (*ShieldNode, error) {
	return restart(lc, lc.Shields, lc.Cfg.ShieldAddrs, name, mk, NewShieldNodeWithTransport)
}

// restartable is what restart needs of a node kind.
type restartable interface {
	Close() error
	Handler() http.Handler
}

// restart is RestartNode and RestartShield over the participant's map,
// addresses and constructor. The old node's durable tier is sealed first
// so the replacement can reopen the same directory. Rebinding the
// just-released port can race the kernel, so the listen is retried
// briefly.
func restart[N restartable](lc *LocalCluster, nodes map[string]N, addrs map[string]string, name string,
	mk TransportFactory, build func(string, ClusterConfig, Transport) (N, error)) (N, error) {
	var none N
	if _, running := lc.byName[name]; running {
		return none, fmt.Errorf("node: %q is still running", name)
	}
	old, ok := nodes[name]
	if !ok {
		return none, fmt.Errorf("node: unknown node %q", name)
	}
	_ = old.Close()
	addr := strings.TrimPrefix(addrs[name], "http://")
	var (
		ln  net.Listener
		err error
	)
	for i := 0; i < 40; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return none, fmt.Errorf("node: rebind %s: %w", addr, err)
	}
	var tp Transport
	if mk != nil {
		tp = mk(name)
	}
	n, err := build(name, lc.Cfg, tp)
	if err != nil {
		_ = ln.Close()
		return none, err
	}
	srv := &httptest.Server{
		Listener: ln,
		Config:   &http.Server{Handler: n.Handler()},
	}
	srv.Start()
	nodes[name] = n
	lc.byName[name] = srv
	lc.servers = append(lc.servers, srv)
	return n, nil
}

// Close shuts down every server in the cluster, seals each node's durable
// tier (a no-op for memory-only nodes) and closes the idle connections the
// process holds to the cluster's addresses.
func (lc *LocalCluster) Close() {
	for _, s := range lc.servers {
		s.Close()
	}
	for _, cn := range lc.Caches {
		_ = cn.Close()
	}
	for _, sn := range lc.Shields {
		_ = sn.Close()
	}
	if lc.Origin != nil {
		_ = lc.Origin.Close()
	}
	closeIdlePeerConns(lc.Cfg)
}
