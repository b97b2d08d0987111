// Command simnet sweeps the deterministic cluster simulator over a range
// of seeds. Each seed generates a fault schedule (crashes, partitions,
// drop windows, rebalances) and runs the production node code on a
// virtual clock, checking the protocol invariants between events. On the
// first failing seed it prints the violations, the ddmin-minimized
// schedule that still reproduces them, and exits 1.
//
// Usage:
//
//	simnet [-seeds 200] [-seed -1] [-nodes 4] [-ringsize 2] [-docs 40]
//	       [-rounds 3] [-inject ""] [-schedule file] [-warm] [-shields 0]
//	       [-tenants 0] [-v]
//
// -seed runs a single seed (overrides -seeds). -schedule replays an
// encoded schedule file instead of generating one. -inject plants a
// deliberate bug (e.g. "heartbeat-undercount" or "supdate-stale") to
// prove the harness catches it. -warm gives every node a durable store
// and switches each round's recovery to a warm process restart
// (heal-warm) with the origin-fetch bound invariant (check-warm).
// -shields N interposes a shield tier of N caches between the cloud and
// the origin, adds a shield-tier fault phase to every round, and arms
// the cross-tier invariants (one update per shield that may hold the
// document and none to a shield skipped, scoped-purge completeness, shield
// freshness at quiescent points, and the staleness sandwich on every
// /sfetch reply).
package main

import (
	"flag"
	"fmt"
	"os"

	"cachecloud/internal/simnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simnet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simnet", flag.ContinueOnError)
	var (
		seeds    = fs.Int64("seeds", 200, "number of seeds to sweep (0..seeds-1)")
		seed     = fs.Int64("seed", -1, "run exactly this seed (overrides -seeds)")
		nodes    = fs.Int("nodes", 4, "cluster size")
		ringSize = fs.Int("ringsize", 2, "beacon points per ring")
		docs     = fs.Int("docs", 40, "catalog size")
		rounds   = fs.Int("rounds", 3, "crash/recover rounds per seed")
		inject   = fs.String("inject", "", "deliberate bug to plant (heartbeat-undercount, supdate-stale, sfetch-stale, supdate-held-lost, deregister-lost)")
		schedule = fs.String("schedule", "", "replay an encoded schedule file instead of generating")
		warm     = fs.Bool("warm", false, "durable stores + warm process restarts instead of plain heals")
		shields  = fs.Int("shields", 0, "shield-tier caches between the cloud and the origin (0 = single tier)")
		tenants  = fs.Int("tenants", 0, "registered tenants with weighted quotas (0 = single tenant)")
		verbose  = fs.Bool("v", false, "print the event log of every run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := simnet.Config{
		Nodes: *nodes, RingSize: *ringSize, Docs: *docs,
		Rounds: *rounds, Inject: *inject, Warm: *warm, Shields: *shields,
		Tenants: *tenants,
	}
	if *schedule != "" {
		text, err := os.ReadFile(*schedule)
		if err != nil {
			return err
		}
		evs, err := simnet.Decode(string(text))
		if err != nil {
			return err
		}
		base.Schedule = evs
	}

	first, last := int64(0), *seeds-1
	if *seed >= 0 {
		first, last = *seed, *seed
	}
	for sd := first; sd <= last; sd++ {
		cfg := base
		cfg.Seed = sd
		res, err := simnet.Run(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", sd, err)
		}
		if *verbose {
			fmt.Printf("--- seed %d ---\n%s", sd, res.Log)
		}
		if !res.Failed() {
			continue
		}
		fmt.Printf("FAIL seed %d: %d invariant violation(s)\n", sd, len(res.Failures))
		for _, f := range res.Failures {
			fmt.Println("  ", f)
		}
		min := simnet.Minimize(res.Schedule, func(cand []simnet.Event) bool {
			c := cfg
			c.Schedule = cand
			r, err := simnet.Run(c)
			return err == nil && r.Failed()
		})
		fmt.Printf("minimized schedule (%d of %d events still fail):\n%s",
			len(min), len(res.Schedule), simnet.Encode(min))
		fmt.Printf("replay: simnet -seed %d -nodes %d -ringsize %d -docs %d -rounds %d",
			sd, *nodes, *ringSize, *docs, *rounds)
		if *inject != "" {
			fmt.Printf(" -inject %s", *inject)
		}
		if *warm {
			fmt.Printf(" -warm")
		}
		if *shields > 0 {
			fmt.Printf(" -shields %d", *shields)
		}
		if *tenants > 0 {
			fmt.Printf(" -tenants %d", *tenants)
		}
		fmt.Println()
		return fmt.Errorf("seed %d failed", sd)
	}
	n := last - first + 1
	fmt.Printf("ok: %d seed(s) passed, all invariants held\n", n)
	return nil
}
