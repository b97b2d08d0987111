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
// tier was unreachable. Outbound calls go through the node's own transport:
// a 5 s deadline per attempt, two retries and per-peer circuit breaking,
// each open circuit counted in cachecloud_node_circuit_open_total. On
// SIGTERM or an interrupt the node stops listening, lets requests in flight
// finish (serve.ShutdownTimeout), stops the heartbeat and the reconcile
// pass and seals the durable tier.
//
// Overload resilience is tuned with -max-inflight (admission gate
// capacity, refused below a miss's weight) and -miss-queue (bounded
// miss-class queue); each overrides the matching cluster-config field when
// set. A field the cluster file names and the node does not know, or a
// value outside its field's domain, from the file or a flag, stops it.
package main

import (
	"context"
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

// options is the command line.
type options struct {
	name, listen, config, storeDir, fsync string
	heartbeat                             time.Duration
	pprof                                 bool
	maxInflight, missQueue                int
}

// flags binds the command's flags to o.
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("cachenode", flag.ContinueOnError)
	fs.StringVar(&o.name, "name", "", "this node's name (must appear in the cluster config)")
	fs.StringVar(&o.listen, "listen", "", "listen address, e.g. 127.0.0.1:8100")
	fs.StringVar(&o.config, "config", "cluster.json", "cluster configuration file")
	fs.DurationVar(&o.heartbeat, "heartbeat", 2*time.Second, "heartbeat period to the origin (0 disables)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "admission gate capacity in weight units (0 = config value or 64)")
	fs.IntVar(&o.missQueue, "miss-queue", 0, "bounded queue for miss-class admissions (0 = config value or 32)")
	fs.StringVar(&o.storeDir, "store-dir", "", "durable cache tier directory root (empty = memory-only; overrides config)")
	fs.StringVar(&o.fsync, "fsync", "", "durable store fsync policy: rotate, always or never (default config value or rotate)")
	return fs
}

func run(args []string) error {
	var o options
	if err := flags(&o).Parse(args); err != nil {
		return err
	}
	if o.name == "" || o.listen == "" {
		return fmt.Errorf("both -name and -listen are required")
	}
	cfg, err := node.LoadClusterConfig(o.config)
	if err != nil {
		return err
	}
	// Overload knobs: flags override the shared cluster config so a single
	// node can be retuned without editing the file every node reads. A
	// negative value overrides too, and the node refuses it.
	if o.maxInflight != 0 {
		cfg.MaxInflight = o.maxInflight
	}
	if o.missQueue != 0 {
		cfg.MissQueue = o.missQueue
	}
	if o.storeDir != "" {
		cfg.StoreDir = o.storeDir
	}
	if o.fsync != "" {
		cfg.Fsync = o.fsync
	}
	n, err := node.NewCacheNode(o.name, cfg)
	if err != nil {
		return err
	}
	stopPeriodic := startPeriodic(n, o.heartbeat)
	if warm, recovered := n.WarmBootInfo(); warm {
		fmt.Fprintf(os.Stderr, "cachenode %s warm boot: %d entries recovered, revalidating\n", o.name, recovered)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			kept, dropped := n.WarmRevalidate(ctx)
			fmt.Fprintf(os.Stderr, "cachenode %s warm revalidation: %d fresh, %d stale dropped\n", o.name, kept, dropped)
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "cachenode %s listening on %s\n", o.name, o.listen)
	err = serve.Run(ctx, serve.New(o.listen, n.Handler(), o.pprof))
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
