// Edgenetwork: the paper's large-scale framing end to end. Forty edge
// caches with synthetic network coordinates are clustered into cache
// clouds with the landmark technique (the paper's companion work it
// assumes as given), a shared origin is attached, and a skewed workload
// runs across the whole network. The output shows the cooperative-
// consistency saving that motivates clouds: the origin sends one update
// message per cloud instead of one per holding cache.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cachecloud"
	"cachecloud/internal/landmark"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// An edge network: 40 caches in 5 geographic clusters.
	rng := rand.New(rand.NewSource(42))
	nodes := landmark.RandomTopology(rng, 40, 5, 15)

	network, clusters, err := cachecloud.BuildEdgeNetworkFromTopology(nodes, landmark.Config{
		Landmarks: landmark.DefaultLandmarks(),
		BinWidth:  140,
	}, cachecloud.EdgeNetworkConfig{CycleLength: 30})
	if err != nil {
		return err
	}

	fmt.Printf("landmark clustering grouped %d caches into %d cache clouds:\n", len(nodes), len(clusters))
	for i, c := range clusters {
		fmt.Printf("  cloud %d: %2d caches (milestone signature %s)\n", i, len(c.Members), c.Signature)
	}
	fmt.Println()

	// A skewed workload over every cache in the network.
	tr := cachecloud.GenerateZipfTrace(cachecloud.ZipfTraceConfig{
		Seed:           3,
		NumDocs:        20_000,
		Alpha:          0.9,
		CacheIDs:       network.CacheIDs(),
		Duration:       120,
		ReqPerCache:    15,
		UpdatesPerUnit: 100,
	})
	fmt.Printf("workload: %d requests, %d updates over %d units\n\n",
		tr.NumRequests(), tr.NumUpdates(), tr.Duration)

	res, err := network.Run(tr)
	if err != nil {
		return err
	}

	fmt.Printf("in-network hit rate: %.1f%% (local %.1f%%, nearby cache %.1f%%)\n",
		100*res.HitRate(),
		100*float64(res.LocalHits)/float64(res.Requests),
		100*float64(res.CloudHits)/float64(res.Requests))
	fmt.Printf("\nper-cloud view:\n%-8s %8s %10s %10s %12s\n", "cloud", "caches", "requests", "hit rate", "beacon CoV")
	for i, pc := range res.PerCloud {
		fmt.Printf("%-8d %8d %10d %9.1f%% %12.3f\n", i, pc.Caches, pc.Requests, 100*pc.HitRate, pc.BeaconCoV)
	}

	perCloud := float64(res.UpdateMessages) / float64(res.Updates)
	perHolder := float64(res.HolderRefreshes) / float64(res.Updates)
	fmt.Printf("\ncooperative consistency: the origin sent %.0f update messages per\n", perCloud)
	fmt.Printf("update (one per cloud); pushing to every holder directly would have\n")
	fmt.Printf("taken %.1f messages per update — the clouds absorb a %.1fx fan-out.\n",
		perHolder, perHolder/perCloud)
	return nil
}
