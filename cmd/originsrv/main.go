// Command originsrv runs the live origin server of a cache cloud cluster.
// It serves group-miss fetches, publishes updates to beacon points, and
// periodically runs the sub-range determination process across the cluster.
//
// The document catalog is loaded from a trace file produced by tracegen
// (only the D records are used).
//
// Usage:
//
//	originsrv -listen 127.0.0.1:8000 -config cluster.json -catalog sydney.trace \
//	          -rebalance 60s
//
// The origin also runs the failure detector: cache nodes heartbeat their
// liveness, and a node missing -miss-k consecutive beats (swept every
// -heartbeat-interval) is declared dead — its sub-ranges merge into a
// ring neighbour, survivors promote their lazy record replicas, and the
// membership change is broadcast. A dead node that heartbeats again is
// re-admitted with a fresh sub-range.
//
// On SIGTERM or an interrupt the origin stops listening, lets requests in
// flight finish (serve.ShutdownTimeout) and stops its timers.
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
	"cachecloud/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "originsrv:", err)
		os.Exit(1)
	}
}

// options is the command line.
type options struct {
	listen, config, catalog                      string
	rebalance, repair, replicate, heartbeatSweep time.Duration
	missK                                        int
	pprof                                        bool
}

// flags binds the command's flags to o.
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("originsrv", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "", "listen address, e.g. 127.0.0.1:8000")
	fs.StringVar(&o.config, "config", "cluster.json", "cluster configuration file")
	fs.StringVar(&o.catalog, "catalog", "", "trace file providing the document catalog")
	fs.DurationVar(&o.rebalance, "rebalance", 0, "rebalance period (0 = only on POST /rebalance)")
	fs.DurationVar(&o.repair, "repair", 0, "health-check/repair period (0 = only on POST /repair)")
	fs.DurationVar(&o.replicate, "replicate", 0, "record-replication period (0 = only on POST /replicate)")
	fs.DurationVar(&o.heartbeatSweep, "heartbeat-interval", 2*time.Second, "failure-detector sweep period over heartbeats (0 disables)")
	fs.IntVar(&o.missK, "miss-k", 3, "missed heartbeats before a node is declared dead")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	return fs
}

func run(args []string) error {
	var opts options
	if err := flags(&opts).Parse(args); err != nil {
		return err
	}
	if opts.listen == "" || opts.catalog == "" {
		return fmt.Errorf("both -listen and -catalog are required")
	}

	cfg, err := node.LoadClusterConfig(opts.config)
	if err != nil {
		return err
	}

	f, err := os.Open(opts.catalog)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	_ = f.Close()
	if err != nil {
		return fmt.Errorf("read catalog: %w", err)
	}

	o, err := node.NewOriginNode(cfg, tr.Docs)
	if err != nil {
		return err
	}
	defer o.Close()

	stop := make(chan struct{})
	defer close(stop)
	runEvery := func(period time.Duration, name string, fn func() error) {
		if period <= 0 {
			return
		}
		go func() {
			ticker := time.NewTicker(period)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := fn(); err != nil {
						fmt.Fprintf(os.Stderr, "originsrv: %s: %v\n", name, err)
					}
				case <-stop:
					return
				}
			}
		}()
	}
	runEvery(opts.rebalance, "rebalance", func() error { _, err := o.Rebalance(); return err })
	runEvery(opts.repair, "repair", func() error { _, err := o.Repair(); return err })
	runEvery(opts.replicate, "replicate", func() error { _, err := o.TriggerReplication(); return err })
	if opts.heartbeatSweep > 0 {
		stopFD := o.StartFailureDetector(opts.heartbeatSweep, opts.missK)
		defer stopFD()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()
	fmt.Fprintf(os.Stderr, "originsrv listening on %s with %d documents\n", opts.listen, len(tr.Docs))
	return serve.Run(ctx, serve.New(opts.listen, o.Handler(), opts.pprof))
}
