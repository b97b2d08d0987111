// Command cachenode runs one live edge-cache node of a cache cloud. Every
// node of the cluster shares a JSON cluster configuration file describing
// the rings, the node addresses and the origin address:
//
//	{
//	  "intraGen": 1000,
//	  "rings": [["n0","n1"],["n2","n3"]],
//	  "addrs": {"n0":"http://127.0.0.1:8100", "n1":"http://127.0.0.1:8101",
//	            "n2":"http://127.0.0.1:8102", "n3":"http://127.0.0.1:8103"},
//	  "originAddr": "http://127.0.0.1:8000",
//	  "capacityBytes": 0,
//	  "utilityPlacement": true
//	}
//
// Usage:
//
//	cachenode -name n0 -listen 127.0.0.1:8100 -config cluster.json
//
// The node heartbeats its liveness to the origin every -heartbeat (0
// disables) and, every reconcileBeats heartbeats, runs the holder-side
// anti-entropy pass: it reports its copies to their beacon points, drops
// the ones they rule stale and re-attaches copies fetched while the shield
// tier was unreachable. Outbound calls get per-request deadlines (-timeout)
// with -retries bounded retries and per-peer circuit breaking. On SIGTERM or
// an interrupt the node stops listening, lets requests in flight finish
// (serve.ShutdownTimeout), stops the heartbeat and the reconcile pass and
// seals the durable tier.
//
// Overload resilience is tuned with -max-inflight (admission gate
// capacity), -miss-queue (bounded miss-class queue) and -limit-mode
// (adaptive origin-fetch limiter: aimd, gradient or fixed); each
// overrides the matching cluster-config field when set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachecloud/cmd/internal/serve"
	"cachecloud/internal/node"
)

// reconcileBeats is the reconcile interval in heartbeat periods: the pass
// costs one message per peer, so it runs well below the beat's rate, and
// it bounds how long a beacon lists this node for a copy it no longer has.
const reconcileBeats = 15

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cachenode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cachenode", flag.ContinueOnError)
	var (
		name      = fs.String("name", "", "this node's name (must appear in the cluster config)")
		listen    = fs.String("listen", "", "listen address, e.g. 127.0.0.1:8100")
		cfgPath   = fs.String("config", "cluster.json", "cluster configuration file")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "heartbeat period to the origin (0 disables)")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-request deadline for outbound calls")
		retries   = fs.Int("retries", 2, "outbound retries after a failed attempt (-1 disables)")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		maxInfl   = fs.Int("max-inflight", 0, "admission gate capacity in weight units (0 = config value or 64)")
		missQueue = fs.Int("miss-queue", 0, "bounded queue for miss-class admissions (0 = config value or 32)")
		limitMode = fs.String("limit-mode", "", "origin-fetch limiter: aimd, gradient or fixed (default config value or aimd)")
		storeDir  = fs.String("store-dir", "", "durable cache tier directory root (empty = memory-only; overrides config)")
		fsyncPol  = fs.String("fsync", "", "durable store fsync policy: rotate, always or never (default config value or rotate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *listen == "" {
		return fmt.Errorf("both -name and -listen are required")
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	// Overload knobs: flags override the shared cluster config so a single
	// node can be retuned without editing the file every node reads.
	if *maxInfl > 0 {
		cfg.MaxInflight = *maxInfl
	}
	if *missQueue > 0 {
		cfg.MissQueue = *missQueue
	}
	if *limitMode != "" {
		cfg.LimitMode = *limitMode
	}
	if *storeDir != "" {
		cfg.StoreDir = *storeDir
	}
	if *fsyncPol != "" {
		cfg.Fsync = *fsyncPol
	}
	tp := node.NewHTTPTransport(node.TransportOptions{
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
		NoRetries:      *retries < 0,
	})
	n, err := node.NewCacheNodeWithTransport(*name, cfg, tp)
	if err != nil {
		return err
	}
	stopPeriodic := startPeriodic(n, *heartbeat)
	if warm, recovered := n.WarmBootInfo(); warm {
		fmt.Fprintf(os.Stderr, "cachenode %s warm boot: %d entries recovered, revalidating\n", *name, recovered)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			kept, dropped := n.WarmRevalidate(ctx)
			fmt.Fprintf(os.Stderr, "cachenode %s warm revalidation: %d fresh, %d stale dropped\n", *name, kept, dropped)
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "cachenode %s listening on %s\n", *name, *listen)
	err = serve.Run(ctx, serve.New(*listen, n.Handler(), *pprofOn))
	// The server has shut down: stop the timers, then seal the durable tier.
	stopPeriodic()
	if cerr := n.Close(); err == nil {
		err = cerr
	}
	return err
}

// startPeriodic starts the node's periodic duties, the heartbeat and the
// reconcile pass, and returns what stops them. A zero heartbeat turns both
// off.
func startPeriodic(n *node.CacheNode, heartbeat time.Duration) (stop func()) {
	if heartbeat <= 0 {
		return func() {}
	}
	stopBeat := n.StartHeartbeat(heartbeat)
	stopReconcile := n.StartReconcile(reconcileBeats * heartbeat)
	return func() {
		stopBeat()
		stopReconcile()
	}
}

func loadConfig(path string) (node.ClusterConfig, error) {
	var cfg node.ClusterConfig
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("read cluster config: %w", err)
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return cfg, fmt.Errorf("parse cluster config: %w", err)
	}
	return cfg, nil
}
