# cachecloud — Cache Clouds (ICDCS 2005) reproduction

GO ?= go

.PHONY: all build vet test race bench bench-json bench-compare bench-smoke figures figures-fast examples golden fuzz simsweep shield-sweep storm restart-chaos tenant-sweep loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep: figure reproductions, ablations, micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark report, written to OUT: every figure's series,
# the hot-path micro-benchmark timings (ns/op, allocs/op), the parallel
# lookup, seedref-contention and shield-hop micro-benchmarks, and the
# parallel-read and shield-fetch replays over a two-million-document
# catalog. BENCH_1.json (recorded before -scalebench existed), BENCH_2.json
# and BENCH_3.json are the committed trajectory; a new point gets the next
# number, the old files stay as recorded.
bench-json:
	@test -n "$(OUT)" || { echo "usage: make bench-json OUT=BENCH_<n>.json"; exit 2; }
	$(GO) run ./cmd/cloudsim -all -json -microbench -scalebench -scale 0.08 > $(OUT)

# The before/after table every optimisation PR owes: BASE (any git ref)
# against the working tree, on the served-path benchmark. BASE is exported
# with git archive into .bench_build/base and builds its own benchmark
# there; each workload gets PAIRS untraced runs a side, one seed per pair,
# the side that goes first alternating (A, B, B, A, ...); then -compare
# prints one row per workload and end-to-end metric by the rule in
# benchmark/README.md, "Comparing two commits". About 45 s a pair.
PAIRS ?= 10
WORKLOADS ?= hot-local coop-miss update-storm full-stack
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref> [PAIRS=10] [WORKLOADS='coop-miss ...']"; exit 2; }
	rm -rf .bench_build/base .bench_build/compare
	mkdir -p .bench_build/base .bench_build/compare
	git archive $(BASE) | tar -x -C .bench_build/base
	@set -e; out=$$PWD/.bench_build/compare; \
	for w in $(WORKLOADS); do for i in $$(seq 1 $(PAIRS)); do \
		a="bash .bench_build/base/benchmark/run.sh --workload $$w --seed $$((100+i)) --append $$out/A.jsonl"; \
		b="bash benchmark/run.sh --workload $$w --seed $$((100+i)) --append $$out/B.jsonl"; \
		echo "== $$w pair $$i of $(PAIRS)"; \
		if [ $$((i%2)) = 1 ]; then $$a >/dev/null; $$b >/dev/null; else $$b >/dev/null; $$a >/dev/null; fi; \
	done; done
	$(GO) run ./benchmark -compare .bench_build/compare/A.jsonl .bench_build/compare/B.jsonl

# CI smoke for the lock-free read path: one iteration of the parallel
# lookup and contention benchmarks under the race detector. Catches data
# races the unit tests' interleavings miss, without benchmark runtimes.
# The tenant quota-eviction benchmark rides along so its 100k-resident
# set-up (three replacement kinds) is built and evicted from once per push,
# and so do the live directory's lookup, update and install benchmarks
# (internal/node: a 20k-record directory each), the origin's /fetch handler
# over a 20k-document catalog (BenchmarkOriginFetch) and the two exchanges' ladder
# rows, one call on each server path (BenchmarkPeerExchange: net/http's and
# the node's own loop, /fetch and /apply; BenchmarkClientDoc: a client's warm
# /doc hit; both sides take a connection's reader and writer from pools for
# each exchange, which must leave these rows' allocs/op and B/op unmoved),
# and the store tier's five ladder rows (a hit, a store that
# evicts, an update in place, a durable append, and one compaction of a
# 10,000-entry log: its replay, sort and buffered rewrite) and a miss
# among 10,000 monitored URLs, which finds a not-stored URL's monitor by
# its hash.
bench-smoke:
	$(GO) test -race -run NoTestsJustBench -bench 'BenchmarkCloudLookupParallel|BenchmarkCloudContention|BenchmarkPutTenantQuotaEvict' -benchtime 1x -benchmem .
	$(GO) test -race -run NoTestsJustBench -bench 'BenchmarkDirectory(Lookup|Update|Install)|BenchmarkOriginFetch|BenchmarkPeerExchange|BenchmarkClientDoc' -benchtime 1x -benchmem ./internal/node
	$(GO) test -race -run NoTestsJustBench -bench 'BenchmarkCache(Get|PutEvict|ApplyUpdate|Miss)|BenchmarkDurable(Put|Compact)' -benchtime 1x -benchmem ./internal/cache ./internal/durable

# Reproduce every paper figure at full scale (several minutes).
figures:
	$(GO) run ./cmd/cloudsim -all -scale 1

# Fast pass over every figure (reduced workload scale).
figures-fast:
	$(GO) run ./cmd/cloudsim -all -scale 0.2

# Regenerate the byte-identical determinism goldens: the figure suite's
# report (TestGoldenAllJSON) and the deterministic simulator's event logs
# for five fixed configurations (TestLogGolden). Run after an intentional
# result change and commit the new files.
golden:
	$(GO) run ./cmd/cloudsim -all -json -scale 0.02 -seed 1 > cmd/cloudsim/testdata/golden_all.json
	$(GO) test ./internal/simnet -run TestLogGolden -count=1 -update

# Short randomized fuzzing of the trace parser, the node wire protocol, the
# handlers' query reader (against url.ParseQuery), the /doc reply writer
# (against json.Encoder, byte for byte), the peer exchange's reply parser,
# the cluster file's loader and validator (every node kind accepts what
# ClusterConfig.check accepts and refuses the rest with its error) and the
# served loop's request parser (the
# committed seed corpora run on every plain `go test`; FuzzWireRequest's
# include what the loop hands back to net/http: chunked after a GET, Expect
# with and without its body, Transfer-Encoding beside Content-Length). Its
# corpus has a 70 KB request in it: minimizing what mutates from that one is
# capped, or it takes the whole half minute.
fuzz:
	$(GO) test -fuzz=FuzzTraceParse -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzProtocolDecode -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzQueryArg -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzDocReply -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzWireReply -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzWireRequest -fuzztime=30s -fuzzminimizetime=2s ./internal/node
	$(GO) test -fuzz=FuzzClusterConfig -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzScheduleDecode -fuzztime=30s ./internal/simnet

# Deterministic simulation sweep: run SEEDS generated fault schedules
# against the production node code on a virtual clock, checking every
# protocol invariant between events. Prints the first failing seed and a
# minimized reproducing schedule on failure. Then the package's own tests
# under the race detector (virtual-clock scheduling is single-threaded; the
# production handlers it drives are not).
#
# This target and the four gates below are what CI runs, by name
# (.github/workflows/ci.yml): a check added here is in CI, and CI has no
# sweep command of its own.
SEEDS ?= 200
simsweep:
	$(GO) run ./cmd/simnet -seeds $(SEEDS)
	$(GO) test -race ./internal/simnet

# Two-tier gate: the shield node end-to-ends, the counting model's tests and
# the shieldsweep experiment's under the race detector, then a simulation
# sweep whose generated schedules add a shield-tier fault phase to every
# round (shield crash, failover, publishes and scoped/global purges past
# the crashed shield) with the cross-tier invariants armed — among them the
# staleness sandwich on every /sfetch reply — the same sweep over durable
# stores and warm restarts, and the first sweep in-process under the race
# detector (TestShieldSweep).
shield-sweep:
	$(GO) test -race -run 'TestShield' ./internal/node ./internal/shield ./internal/experiments
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -shields 2
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -warm -shields 2
	$(GO) test -race -run 'TestShieldSweep' ./internal/simnet

# Overload-resilience gate: the chaos end-to-ends (beacon failover,
# recovery accounting, rejoin, overload storm, the topology writers'
# hammer and the two lost-update regressions) and the admission primitives
# under the race detector. The simulation sweep whose generated schedules
# include burst and hot-document miss-storm events is simsweep's first
# command; CI runs both targets, so it is not repeated here.
storm:
	$(GO) test -race -count=2 -run 'TestChaos|TestStorm|TestRebalanceDoesNotUndo' ./internal/node
	$(GO) test -race ./internal/admit/...

# Durability gate: the restart-under-load chaos end-to-end, both tiers'
# writes through the durable queue (a shield serving while its store is
# parked, declining no update while a tombstone is queued, Close writing
# what is queued) and the durable store's torn-write/crash-safety and queue
# suites under the race detector (among them TestHeldFlagsKeepCountsExact:
# a tier's held flags keep the counts exact with no index;
# TestFailedRotationRecovers: a rotation that could not open a segment does
# not disable the store; TestShortWriteLosesNoAcknowledgedPut: a short
# append is cut back to its last whole record), the cache's mirroring onto
# that queue, then a simulation sweep whose generated schedules recover
# every crash with a warm process restart (heal-warm) under the
# origin-fetch bound invariant.
restart-chaos:
	$(GO) test -race -count=2 -run 'TestChaosRestart|TestRestartCold|TestShieldServesWhileDiskHeld|TestShieldHeldWhileTombstoneQueued|TestCloseWritesQueuedMutations' ./internal/node
	$(GO) test -race -count=2 ./internal/durable/...
	$(GO) test -race -run 'Durable' ./internal/cache
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -warm

# Tenancy gate: the cross-tenant isolation property test and the
# noisy-neighbor chaos end-to-end under the race detector, the tenant
# quota-law unit suites, the tenantsweep experiment's shape checks, then
# a simulation sweep whose generated schedules land a multi-tenant storm
# each round with the per-tenant byte-quota invariant armed between
# events and per-tenant conservation at quiescence, the same sweep with
# warm restarts behind two shields (the only gate that runs the three
# together; the warm bound counts every tenant's keys), and the tenant
# sweep in-process under the race detector (TestTenantSweep).
tenant-sweep:
	$(GO) test -race -count=2 -run 'TestTenantIsolationProperty|TestChaosNoisyNeighborTenantStorm|TestTenantHeaderValidation|TestTenantQuotaEvictionsMetric' ./internal/node
	$(GO) test -race ./internal/tenant/...
	$(GO) test -race -run 'TestTenant' ./internal/cache ./internal/experiments
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -tenants 3
	$(GO) run ./cmd/simnet -seeds $(SEEDS) -warm -shields 2 -tenants 3
	$(GO) test -race -run 'TestTenantSweep' ./internal/simnet

# The two sizes a simplicity PR quotes in CHANGES.md: non-test Go lines
# outside benchmark/ (and the benchmark's build directory), and of
# internal/node among them.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l | xargs echo "non-test Go outside benchmark/:"
	@cat $$(ls internal/node/*.go | grep -v _test.go) | wc -l | xargs echo "internal/node (non-test):"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/flashcrowd
	$(GO) run ./examples/newsfeed
	$(GO) run ./examples/livecluster
	$(GO) run ./examples/edgenetwork

clean:
	$(GO) clean ./...
