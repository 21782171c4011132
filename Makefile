# Pre-merge gate: `make ci` must pass before any change lands.
GO ?= go

.PHONY: ci build fmt vet test race shuffle perfbench-check fuzz-smoke vulncheck bench bench-smoke smoke

ci: fmt vet race shuffle perfbench-check fuzz-smoke vulncheck bench-smoke smoke ## full pre-merge gate

build:
	$(GO) build ./...

# Any file gofmt would rewrite fails the gate.
fmt:
	test -z "$$(gofmt -l .)"

# The smoke tag brings the end-to-end drills (internal/smoke) under vet.
vet:
	$(GO) vet -tags smoke ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Shuffled order flushes out tests that depend on package-level state
# left behind by earlier tests (e.g. a failpoint someone forgot to Reset).
shuffle:
	$(GO) test -shuffle=on ./...

# The benchmark (perfbench/) is its own module, which the root's
# ./... patterns skip; vet and test it under the offline environment
# perfbench/run.sh builds it in.
PERFBENCH_ENV = GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...

# Coverage-guided fuzzing over the byte decoders and header parsers —
# ten seconds on the DIMACS parser, five each on the /batch request
# decoder, the gateway's reply scanner and its number range verdict
# (checked against strconv.ParseFloat), the answer float formatter
# (checked against strconv and json.Marshal), all six artifact codecs (model,
# build checkpoint, ALT guard, spatial index, shard routing map and
# shard model), the X-Rne-Budget-Ms header, the replica's query-string
# parser, the W3C traceparent header, the X-Request-Id header and the
# Prometheus exposition parser, plus five on the bucket-queue search
# against the heap over fuzzed graphs — 17 targets, a smoke pass
# catching regressions in input hardening and search parity, not a
# deep campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseDIMACS -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzBatchRequest$$' -fuzztime=5s ./internal/batchwire
	$(GO) test -run='^$$' -fuzz='^FuzzBatchReply$$' -fuzztime=5s ./internal/batchwire
	$(GO) test -run='^$$' -fuzz='^FuzzNumberRange$$' -fuzztime=5s ./internal/batchwire
	$(GO) test -run='^$$' -fuzz='^FuzzAppendFloat$$' -fuzztime=5s ./internal/batchwire
	$(GO) test -run='^$$' -fuzz='^FuzzModelLoad$$' -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzCheckpointRead$$' -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzALTRead$$' -fuzztime=5s ./internal/alt
	$(GO) test -run='^$$' -fuzz='^FuzzTreeLoad$$' -fuzztime=5s ./internal/index
	$(GO) test -run='^$$' -fuzz='^FuzzShardMapRead$$' -fuzztime=5s ./internal/shard
	$(GO) test -run='^$$' -fuzz='^FuzzShardModelRead$$' -fuzztime=5s ./internal/shard
	$(GO) test -run='^$$' -fuzz='^FuzzParseBudget$$' -fuzztime=5s ./internal/resilience
	$(GO) test -run='^$$' -fuzz='^FuzzQuery$$' -fuzztime=5s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzParseTraceParent$$' -fuzztime=5s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzInboundRequestID$$' -fuzztime=5s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzParseExposition$$' -fuzztime=5s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzSearchMatchesHeap$$' -fuzztime=5s ./internal/sssp

# Known-vulnerability scan; skips gracefully where govulncheck or the
# vulndb is unavailable (offline CI, hermetic builders).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || exit 1; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# 200 iterations each of the in-process handler, serving-pass, gateway
# routing and /batch fan-out, /batch wire codec and float formatter,
# drift filing, spatial-index kNN and bj-mini guard benchmarks, 5 of ground-truth
# labeling on the 90x90 grid, 200 of each 90x90 label-setting search
# and 5 each of the vertex-only and the hierarchy-phase training pass,
# so they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Handler|Wrap|Route|GatewayBatch' -benchtime 200x -benchmem ./internal/server ./internal/resilience ./internal/gateway
	$(GO) test -run '^$$' -bench 'EncodeAnswer|MergeTwoLegs|DecodePairs|AppendFloat' -benchtime 200x -benchmem ./internal/batchwire
	$(GO) test -run '^$$' -bench '^BenchmarkDriftObserveAll$$' -benchtime 200x -benchmem ./internal/telemetry
	$(GO) test -run '^$$' -bench '^BenchmarkKNN$$' -benchtime 200x -benchmem ./internal/index
	$(GO) test -run '^$$' -bench '^BenchmarkGuard$$/^bj-mini$$' -benchtime 200x -benchmem ./internal/hybrid
	$(GO) test -run '^$$' -bench '^BenchmarkLabel$$/^90x90$$' -benchtime 5x -benchmem ./internal/sample
	$(GO) test -run '^$$' -bench '^BenchmarkSearch$$/^90x90' -benchtime 200x -benchmem ./internal/sssp
	$(GO) test -run '^$$' -bench '^BenchmarkVertexStep$$' -benchtime 5x -benchmem ./internal/train
	$(GO) test -run '^$$' -bench '^BenchmarkHierStep$$' -benchtime 5x -benchmem ./internal/train

# End-to-end drills through the real binaries, one Test each (see the
# doc comments in internal/smoke): hot swap, gateway failover, autoheal
# chaos, overload, tracing, load harness, geo-sharding, record/replay
# and the telemetry benchmark. -count=1 because the drills' inputs are
# binaries the test cache cannot see. RNE_BENCH_DIR=<absolute dir>
# writes their BENCH_*.json there.
smoke:
	$(GO) test -tags smoke -count=1 ./internal/smoke
