# Pre-merge gate: `make ci` must pass before any change lands.
GO ?= go

.PHONY: ci build vet test race shuffle fuzz-smoke vulncheck bench bench-smoke replay-smoke swap-smoke gate-smoke heal-smoke overload-smoke trace-smoke load-smoke shard-smoke

ci: vet race shuffle fuzz-smoke vulncheck bench-smoke replay-smoke swap-smoke gate-smoke heal-smoke overload-smoke trace-smoke load-smoke shard-smoke ## full pre-merge gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Shuffled order flushes out tests that depend on package-level state
# left behind by earlier tests (e.g. a failpoint someone forgot to Reset).
shuffle:
	$(GO) test -shuffle=on ./...

# Coverage-guided fuzzing over the byte decoders and header parsers —
# ten seconds on the DIMACS parser, five each on the /batch request
# decoder, the gateway's reply scanner, all six artifact codecs (model,
# build checkpoint, ALT guard, spatial index, shard routing map and
# shard model), the X-Rne-Budget-Ms header, the replica's query-string
# parser, the W3C traceparent header and the Prometheus exposition
# parser — a smoke pass catching regressions in input hardening, not a
# deep campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseDIMACS -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzBatchRequest$$' -fuzztime=5s ./internal/batchwire
	$(GO) test -run='^$$' -fuzz='^FuzzBatchReply$$' -fuzztime=5s ./internal/batchwire
	$(GO) test -run='^$$' -fuzz='^FuzzModelLoad$$' -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzCheckpointRead$$' -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzALTRead$$' -fuzztime=5s ./internal/alt
	$(GO) test -run='^$$' -fuzz='^FuzzTreeLoad$$' -fuzztime=5s ./internal/index
	$(GO) test -run='^$$' -fuzz='^FuzzShardMapRead$$' -fuzztime=5s ./internal/shard
	$(GO) test -run='^$$' -fuzz='^FuzzShardModelRead$$' -fuzztime=5s ./internal/shard
	$(GO) test -run='^$$' -fuzz='^FuzzParseBudget$$' -fuzztime=5s ./internal/resilience
	$(GO) test -run='^$$' -fuzz='^FuzzQuery$$' -fuzztime=5s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzParseTraceParent$$' -fuzztime=5s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzParseExposition$$' -fuzztime=5s ./internal/telemetry

# Known-vulnerability scan; skips gracefully where govulncheck or the
# vulndb is unavailable (offline CI, hermetic builders).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi

# Model-lifecycle smoke through the real binaries: publish v1 to a
# registry, serve it, publish v2, SIGHUP, and assert the serving
# version flips with zero failed requests.
swap-smoke:
	@GO="$(GO)" sh scripts/swap_smoke.sh

# Chaos self-healing smoke through the real binaries: perturb the
# live graph mid-serve, kill the first retrain with an armed
# checkpoint failpoint, and assert the controller still retrains,
# swaps to v2 and converges under budget with zero failed requests.
heal-smoke:
	@GO="$(GO)" sh scripts/heal_smoke.sh

# Scale-out smoke: rnegate fanning /batch across two rneserver
# replicas keeps serving (with the ejection counted) after one
# replica is killed.
gate-smoke:
	@GO="$(GO)" sh scripts/gate_smoke.sh

# Overload drill smoke: three capacity-starved replicas behind rnegate
# hammered past saturation with one killed mid-run; every answer must
# be 200/206/429/504, shedding must actually fire, goodput must
# survive the kill, and a dead-shard /batch must degrade to a partial
# 206 whose merge is verified against the healthy fleet.
overload-smoke:
	@GO="$(GO)" sh scripts/overload_smoke.sh

# Distributed-tracing smoke through the real binaries: a traced
# gateway + two traced replicas serve hedged /distance and sharded
# /batch traffic; asserts one gateway trace carries every backend
# attempt plus matching replica handler spans, then re-runs untraced
# and emits the tail-latency attribution (with the on/off p99 delta)
# as BENCH_trace.json via rnereplay -traces.
trace-smoke:
	@GO="$(GO)" sh scripts/trace_smoke.sh

# Load-harness smoke through the real binaries: a short closed+open
# ramp against one replica (with pprof capture from -debug-addr), then
# against rnegate over two replicas, appended into one BENCH_load.json;
# asserts the client/server metrics join is non-empty in both runs.
load-smoke:
	@GO="$(GO)" sh scripts/load_smoke.sh

# Geo-sharded serving smoke: a bj-mini model cut into two level-1
# region shards behind the region-routing gateway; asserts intra-shard
# answers match the full replica bit-for-bit, cross-shard answers stay
# inside certified guard bounds, shard replicas hold strictly fewer
# embedding bytes than the full one, and killing one shard degrades
# only its region. Emits BENCH_shard.json (full vs sharded).
shard-smoke:
	@GO="$(GO)" sh scripts/shard_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Telemetry smoke benchmark: quick build + timed queries through
# the telemetry histograms; emits BENCH_telemetry.json with p50/p95/p99.
# Then 200 iterations each of the in-process handler, serving-pass and
# gateway routing benchmarks, so they keep compiling and running.
bench-smoke:
	$(GO) run ./cmd/rnebench -exp telemetry-smoke -quick
	$(GO) test -run '^$$' -bench 'Handler|Wrap|Route' -benchtime 200x -benchmem ./internal/server ./internal/resilience ./internal/gateway

# Record → replay → diff smoke: generate a grid, score a workload
# against the exact oracle while recording it as a query log, then
# replay the log with the same deterministic training and assert the
# diff verdict is "ok" (rnereplay exits 3 on a regression verdict).
replay-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/genroad -rows 12 -cols 12 -seed 7 -o $$tmp/g.txt && \
	$(GO) run ./cmd/rnereplay -graph $$tmp/g.txt -gen 300 -quick -landmarks 4 \
		-qlog-out $$tmp/q.jsonl -out $$tmp/base.json >/dev/null && \
	$(GO) run ./cmd/rnereplay -graph $$tmp/g.txt -log $$tmp/q.jsonl -quick -landmarks 4 \
		-out $$tmp/replay.json -baseline $$tmp/base.json >$$tmp/replay.txt && \
	grep "diff vs" $$tmp/replay.txt && \
	echo "replay-smoke: verdict ok"
