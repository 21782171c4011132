# Pre-merge gate: `make ci` must pass before any change lands.
GO ?= go

.PHONY: ci build fmt vet test race shuffle fuzz-smoke vulncheck bench bench-smoke smoke

ci: fmt vet race shuffle fuzz-smoke vulncheck bench-smoke smoke ## full pre-merge gate

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

# Coverage-guided fuzzing over the byte decoders and header parsers —
# ten seconds on the DIMACS parser, five each on the /batch request
# decoder, the gateway's reply scanner and its number range verdict
# (checked against strconv.ParseFloat), the answer float formatter
# (checked against strconv and json.Marshal), all six artifact codecs (model,
# build checkpoint, ALT guard, spatial index, shard routing map and
# shard model), the X-Rne-Budget-Ms header, the replica's query-string
# parser, the W3C traceparent header and the Prometheus exposition
# parser — a smoke pass catching regressions in input hardening, not a
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
	$(GO) test -run='^$$' -fuzz='^FuzzParseExposition$$' -fuzztime=5s ./internal/telemetry

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
# drift filing and spatial-index kNN benchmarks, so they keep compiling
# and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Handler|Wrap|Route|GatewayBatch' -benchtime 200x -benchmem ./internal/server ./internal/resilience ./internal/gateway
	$(GO) test -run '^$$' -bench 'EncodeAnswer|MergeTwoLegs|DecodePairs|AppendFloat' -benchtime 200x -benchmem ./internal/batchwire
	$(GO) test -run '^$$' -bench '^BenchmarkDriftObserveAll$$' -benchtime 200x -benchmem ./internal/telemetry
	$(GO) test -run '^$$' -bench '^BenchmarkKNN$$' -benchtime 200x -benchmem ./internal/index

# End-to-end drills through the real binaries, one Test each (see the
# doc comments in internal/smoke): hot swap, gateway failover, autoheal
# chaos, overload, tracing, load harness, geo-sharding, record/replay
# and the telemetry benchmark. -count=1 because the drills' inputs are
# binaries the test cache cannot see. RNE_BENCH_DIR=<absolute dir>
# writes their BENCH_*.json there.
smoke:
	$(GO) test -tags smoke -count=1 ./internal/smoke
