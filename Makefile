GO ?= go

.PHONY: build test vet race verify loc fuzz examples bench-smoke bench-ab chaos soak recycle-soak fleet-soak serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet, plus the cross-domain seam check: sim.Hop and sim.Inject are the
# only ways across a simulation-domain boundary (DESIGN.md §3e).
vet:
	$(GO) vet ./...
	./scripts/check_seams.sh

# Data-race check over the packages the datapath fast path touches most,
# plus the telemetry layer (concurrent Snapshot vs a running sim), plus the
# blocking-bridge layers (host TCP, hostnet facade — alien goroutines vs
# the event loop), plus the control planes whose goroutines cross the sim
# boundary (ops driver/dead-man switch, supervision tree, raw-iron
# lifecycle), plus netstack (a receiver's ParseBuf is long-lived state,
# one per receiving port), plus the shard-determinism properties — the full
# chaos soak and the fleet lockdown soak at 1/2/4 workers, the runs that
# actually exercise cross-domain synchronization and escalation under load
# — three times over, because a scheduling-dependent journal shows up on
# some runs and not others.
race:
	$(GO) test -race ./internal/gateway ./internal/netsim ./internal/sim \
		./internal/obs ./internal/farm ./internal/host ./internal/hostnet \
		./internal/ops ./internal/supervisor ./internal/rawiron ./internal/netstack
	$(GO) test -race -run 'TestShardDeterminism|TestFleetLockdownSoak' ./internal/experiments -count=3

# Tier-1 verification recipe (see ROADMAP.md).
verify: build vet test race

# Non-test Go lines per package and in total (bench/ separately), so a
# "net-negative" change is a number: with PARENT=<rev>, a per-package
# before -> after -> delta table against that revision's committed files.
loc:
	@./scripts/loc.sh $(PARENT)

# The seven examples/ programs, built and run once each: the SHA-256 of each
# one's stdout and its exit status must match examples/testdata/stdout.sha256
# (./scripts/examples_check.sh -update rewrites it for an intended change).
examples:
	./scripts/examples_check.sh

# Every Go benchmark (Benchmark*) run once, so benchmark code that panics or
# fails does not go unnoticed between the runs that time it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/...

# Native fuzz targets on a short budget each (go test takes one -fuzz
# target per package run). A crasher lands in the package's
# testdata/fuzz/<target>/ — commit it: plain `go test` replays it from
# then on. FuzzEventQueue's, FuzzFlowSegments', the two smtpx targets' and
# the DNS and DHCP decoders' inputs are scripts or messages a few hundred
# bytes long; the engine's minimiser, which is quadratic in that length and
# runs on every input that adds coverage, is held to ten executions or it
# eats the budget.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime $(FUZZTIME) ./internal/netstack
	$(GO) test -run '^$$' -fuzz '^FuzzVLANReshape$$' -fuzztime $(FUZZTIME) ./internal/netstack
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime $(FUZZTIME) ./internal/netstack
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzFlowSegments$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/gateway
	$(GO) test -run '^$$' -fuzz '^FuzzEngineFeed$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/smtpx
	$(GO) test -run '^$$' -fuzz '^FuzzClientFeed$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/smtpx
	$(GO) test -run '^$$' -fuzz '^FuzzShimCodec$$' -fuzztime $(FUZZTIME) ./internal/shim
	$(GO) test -run '^$$' -fuzz '^FuzzSessionFraming$$' -fuzztime $(FUZZTIME) ./internal/containment
	$(GO) test -run '^$$' -fuzz '^FuzzDNSUnmarshal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/dnsx
	$(GO) test -run '^$$' -fuzz '^FuzzDHCPUnmarshal$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/dhcp
	$(GO) test -run '^$$' -fuzz '^FuzzParserFeed$$' -fuzztime $(FUZZTIME) ./internal/httpx
	$(GO) test -run '^$$' -fuzz '^FuzzChaosParse$$' -fuzztime $(FUZZTIME) ./internal/chaos

# Chaos soak: the Botfarm demo under the "soak" fault profile (≥5% loss,
# reorder/dup/corruption, link flaps, a CS crash, verdict stalls, a sink
# outage) on two pinned seeds, run twice each — the journals must be
# byte-identical and every graceful-degradation invariant must hold.
chaos:
	$(GO) test -run TestChaosSoak ./internal/experiments -count=1 -v

# Recovery soak: the supervised kill-storm (3-member containment cluster,
# six round-robin CS kills) on two pinned seeds at 1 and 4 workers under
# the race detector, plus the workers-1/2/4 determinism proof (byte-equal
# journals, identical recovery intervals and health histories). Every kill
# must be detected by missed heartbeats, failed over fail-closed, and
# repaired within the recovery bound with zero probe escapes.
soak:
	$(GO) test -race -run 'TestRecoverySoak' ./internal/experiments -count=1 -v

# Recycling soak: three subfarms of raw-iron inmates cycling detonate →
# capture → reimage → re-admit under the "reimage" fault profile (hung
# netboots, stalled/corrupted transfers, stuck power ports) at 1/2/4
# workers. Every injected fault must end in a retry or a breaker
# quarantine — no wedged machines — the cycle floors must hold, flow
# tables must drain, no probe traffic may escape, and the journals must
# be byte-identical across worker counts.
recycle-soak:
	$(GO) test -run TestRecycleSoak ./internal/experiments -count=1 -v

# Fleet lockdown soak: three supervised subfarms under the "blackout"
# profile — sink crashes, a controller hang, a recycler wedge, and a
# containment-server kill storm past alpha's circuit breaker. The
# supervision tree must recover every survivable fault, escalate the
# unsurvivable one through subfarm fail-closed lockdown to global
# dead-man lockdown, hold zero probe escapes before/during/after the
# lockdown, and drain every flow table empty — with byte-identical
# journals and DeepEqual escalation records at 1/2/4 workers.
fleet-soak:
	$(GO) test -race -run TestFleetLockdownSoak ./internal/experiments -count=1 -v

# Serve-mode smoke: boot `gqfarm -serve` with raw-iron inmates, poll
# /healthz, scrape /metrics in both machine formats, list /machines, read
# one SSE event, POST a policy swap, force one recycle, then SIGTERM and
# require a clean exit 0.
serve-smoke:
	./scripts/serve_smoke.sh

# A/B the GQ benchmark (bench/, BENCHMARK.json) against a parent revision:
# each side's bench binary is built once (the parent's from its committed
# files, extracted to a temporary directory) and the two run as $(AB_PAIRS)
# alternating pairs at seed $(AB_SEED). `bench -compare` then prints medians,
# worst-case deltas against the bounds, spreads, and "simulation identical"
# per workload, and scripts/abstat pairs the runs by index: both medians,
# pairs won and the parent's IQR per workload and metric, and with CLAIM the
# claim rule's verdict. AB_OUT keeps both sides' -json files.
#   make bench-ab PARENT=HEAD~1 AB_WORKLOADS=bulk_dense,bulk_proxy
#   make bench-ab PARENT=HEAD~1 CLAIM=flow_churn:alloc_mb:15 AB_SEED=7 AB_OUT=ab7
AB_PAIRS     ?= 10
AB_WORKLOADS ?=
AB_SECONDS   ?= 3
AB_SEED      ?= 1
AB_OUT       ?=
CLAIM        ?=

bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev> [AB_PAIRS=10] [AB_WORKLOADS=a,b] [AB_SECONDS=3] [AB_SEED=1] [AB_OUT=dir] [CLAIM=workload:metric:pct]" >&2; exit 2; }
	AB_SEED="$(AB_SEED)" AB_OUT="$(AB_OUT)" CLAIM="$(CLAIM)" ./scripts/bench_ab.sh "$(PARENT)" "$(AB_PAIRS)" "$(AB_WORKLOADS)" "$(AB_SECONDS)"
