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
	"encoding/json"
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

func run(args []string) error {
	fs := flag.NewFlagSet("originsrv", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "", "listen address, e.g. 127.0.0.1:8000")
		cfgPath   = fs.String("config", "cluster.json", "cluster configuration file")
		catalog   = fs.String("catalog", "", "trace file providing the document catalog")
		rebalance = fs.Duration("rebalance", 0, "rebalance period (0 = only on POST /rebalance)")
		repair    = fs.Duration("repair", 0, "health-check/repair period (0 = only on POST /repair)")
		replicate = fs.Duration("replicate", 0, "record-replication period (0 = only on POST /replicate)")
		hbSweep   = fs.Duration("heartbeat-interval", 2*time.Second, "failure-detector sweep period over heartbeats (0 disables)")
		missK     = fs.Int("miss-k", 3, "missed heartbeats before a node is declared dead")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" || *catalog == "" {
		return fmt.Errorf("both -listen and -catalog are required")
	}

	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		return fmt.Errorf("read cluster config: %w", err)
	}
	var cfg node.ClusterConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parse cluster config: %w", err)
	}

	f, err := os.Open(*catalog)
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
	runEvery(*rebalance, "rebalance", func() error { _, err := o.Rebalance(); return err })
	runEvery(*repair, "repair", func() error { _, err := o.Repair(); return err })
	runEvery(*replicate, "replicate", func() error { _, err := o.TriggerReplication(); return err })
	if *hbSweep > 0 {
		stopFD := o.StartFailureDetector(*hbSweep, *missK)
		defer stopFD()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()
	fmt.Fprintf(os.Stderr, "originsrv listening on %s with %d documents\n", *listen, len(tr.Docs))
	return serve.Run(ctx, serve.New(*listen, o.Handler(), *pprofOn))
}
