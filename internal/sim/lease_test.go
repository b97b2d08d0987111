package sim

import (
	"errors"
	"testing"
)

func TestTTLAndLeaseMutuallyExclusive(t *testing.T) {
	_, err := Run(Config{TTL: 10, LeaseDuration: 10}, smallZipfTrace(10))
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// Leases never serve stale documents: an expired lease forces revalidation
// on the next hit.
func TestLeaseModeNeverStale(t *testing.T) {
	res, err := Run(Config{Arch: DynamicHashing, LeaseDuration: 20}, smallZipfTrace(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleServes != 0 {
		t.Fatalf("lease mode served stale %d times", res.StaleServes)
	}
	if res.LeaseRenewals == 0 {
		t.Fatal("no leases granted")
	}
	if res.Revalidations == 0 {
		t.Fatal("no revalidations after lease expiry")
	}
}

// Leases push fewer updates than always-push (cold documents' leases
// expire) but more than TTL (which never pushes).
func TestLeasePushVolumeBetweenPushAndTTL(t *testing.T) {
	tr := smallZipfTrace(100)
	push, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := Run(Config{Arch: DynamicHashing, LeaseDuration: 15}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := Run(Config{Arch: DynamicHashing, TTL: 15}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !(ttl.HoldersNotified == 0 && lease.HoldersNotified > 0 && lease.HoldersNotified < push.HoldersNotified) {
		t.Fatalf("push volumes: push=%d lease=%d ttl=%d",
			push.HoldersNotified, lease.HoldersNotified, ttl.HoldersNotified)
	}
}

func TestLatencyHistogramCollected(t *testing.T) {
	tr := smallZipfTrace(20)
	res, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil || res.Latency.Count() != res.Requests {
		t.Fatalf("latency observations %v for %d requests", res.Latency, res.Requests)
	}
	// The mean must sit between the local cost and the origin cost.
	m := res.Latency.Mean()
	if m <= 5 || m >= 165 {
		t.Fatalf("mean latency %v outside plausible range", m)
	}
	// Percentiles reflect the outcome mix: p50 should be far below p99.
	if res.Latency.Quantile(0.5) >= res.Latency.Quantile(0.99) {
		t.Fatal("latency quantiles not ordered")
	}
}

// Cooperation must reduce mean client latency versus independent caches —
// the paper's bottom-line motivation.
func TestCooperationReducesLatency(t *testing.T) {
	tr := smallZipfTrace(20)
	indep, err := Run(Config{Arch: NoCooperation}, tr)
	if err != nil {
		t.Fatal(err)
	}
	coop, err := Run(Config{Arch: DynamicHashing}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if coop.Latency.Mean() >= indep.Latency.Mean() {
		t.Fatalf("cooperative latency %.1fms not below independent %.1fms",
			coop.Latency.Mean(), indep.Latency.Mean())
	}
}

// Failure injection: crashing a cache mid-run loses its lookup records
// without replication and recovers them with the lazy replication
// extension — and the run completes either way.
func TestFailureInjection(t *testing.T) {
	tr := smallZipfTrace(30)
	fail := func() map[int64][]string {
		return map[int64][]string{60: {"cache-03"}, 90: {"cache-07"}}
	}

	bare, err := Run(Config{Arch: DynamicHashing, CycleLength: 30, FailAt: fail()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if bare.CachesFailed != 2 {
		t.Fatalf("failures = %d, want 2", bare.CachesFailed)
	}
	if bare.RecordsLost == 0 {
		t.Fatal("crash without replication lost no records")
	}

	repl, err := Run(Config{
		Arch: DynamicHashing, CycleLength: 30, ReplicateRecords: true, FailAt: fail(),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if repl.RecordsRecovered == 0 {
		t.Fatal("replication recovered no records")
	}
	if repl.RecordsLost >= bare.RecordsLost {
		t.Fatalf("replication did not reduce record loss: %d vs %d",
			repl.RecordsLost, bare.RecordsLost)
	}
	// Recovered directories preserve hit rate better.
	if repl.CloudHitRate() < bare.CloudHitRate() {
		t.Fatalf("replicated run hit rate %.3f below unreplicated %.3f",
			repl.CloudHitRate(), bare.CloudHitRate())
	}
}

func TestFailureInjectionRequiresCooperation(t *testing.T) {
	_, err := Run(Config{Arch: NoCooperation, FailAt: map[int64][]string{1: {"cache-00"}}}, smallZipfTrace(5))
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

func TestFailureInjectionDoesNotMutateCallerMap(t *testing.T) {
	failAt := map[int64][]string{30: {"cache-01"}}
	if _, err := Run(Config{Arch: DynamicHashing, FailAt: failAt}, smallZipfTrace(10)); err != nil {
		t.Fatal(err)
	}
	if len(failAt) != 1 || failAt[30][0] != "cache-01" {
		t.Fatalf("caller's FailAt mutated: %v", failAt)
	}
}
