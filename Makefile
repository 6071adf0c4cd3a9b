# Configurable Cloud reproduction — common workflows.

GO ?= go

.PHONY: all build vet test test-short race bench bench-json bench-check cover-frontend e2e experiments examples fuzz docs telemetry loc clean

all: build vet test docs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The deterministic test tier under the race detector. The simulator is
# single-threaded by design; this keeps it that way.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Hot-path benchmark packages: the sim kernel, the fabric, the Elastic
# Router, the latency histogram, and the network services (svclb's
# per-request path, the on-fabric KV cache and RPC NIC). BENCH_10.json is
# the committed baseline the CI perf guard compares fresh runs against:
# ns/op within ±15%, allocs/op a hard ceiling (±2%).
BENCH_PKGS = ./internal/sim/... ./internal/netsim/ ./internal/kvcache/ ./internal/rpcnic/ ./internal/er/ ./internal/metrics/ ./internal/svclb/
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms $(BENCH_PKGS) | $(GO) run ./cmd/ccbench -o BENCH_10.json

bench-check:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms $(BENCH_PKGS) | $(GO) run ./cmd/ccbench -check BENCH_10.json -tol 0.15

# The live-traffic tier end to end: the frontend's race + determinism
# tests (real listeners, concurrent clients), then the coverage gate.
e2e:
	$(GO) test -race ./internal/frontend/ ./internal/loadgen/
	$(MAKE) cover-frontend

# Coverage gate for the live-traffic tier: fails when statement coverage
# of the frontend or the load generator drops below 80%.
cover-frontend:
	$(GO) test -cover ./internal/frontend/ ./internal/loadgen/ | awk '{ print } \
	  /coverage:/ { pct = $$0; sub(/.*coverage: /, "", pct); sub(/%.*/, "", pct); \
	    if (pct + 0 < 80) { print "FAIL: coverage below 80%"; bad = 1 } } \
	  END { exit bad }'

# Regenerate every paper table/figure at paper-like sizing.
experiments:
	$(GO) run ./cmd/ccexperiment -exp all -full

# Documentation lint: markdown link targets + package doc comments.
docs:
	$(GO) run ./cmd/ccdocs

# Per-sweep-point telemetry for the svclb experiment, plus waterfalls of
# the slowest traced flows (see OBSERVABILITY.md).
telemetry:
	$(GO) run ./cmd/ccexperiment -exp svclb -telemetry svclb.jsonl -trace-dump 3

# Run every example binary once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/searchrank
	$(GO) run ./examples/cryptooffload
	$(GO) run ./examples/remotepool
	$(GO) run ./examples/haasdemo
	$(GO) run ./examples/bioinformatics

# Brief fuzzing passes over the wire decoders, the KV store, the Elastic
# Router, its message streams against the per-flit router, the
# frontend's HTTP handler, the in-line background noise against its
# event-per-frame reference, a port's class pick against
# the eight-class scan, a HaaS pool's lease ledger, and the vFPGA slot
# scheduler's claim ledger.
fuzz:
	$(GO) test -fuzz FuzzDecode$$ -fuzztime 30s ./internal/pkt/
	$(GO) test -fuzz FuzzDecodeLTL -fuzztime 30s ./internal/pkt/
	$(GO) test -fuzz FuzzEncodeDecodeUDP -fuzztime 30s ./internal/pkt/
	$(GO) test -fuzz FuzzHandleFrame -fuzztime 30s ./internal/ltl/
	$(GO) test -fuzz FuzzDecodeReq -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzDecodeResp -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzDecodeMReq -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzDecodeMResp -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzStoreOps -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzDecodeReq -fuzztime 30s ./internal/rpcnic/
	$(GO) test -fuzz FuzzDecodeResp -fuzztime 30s ./internal/rpcnic/
	$(GO) test -fuzz FuzzRouter -fuzztime 30s ./internal/er/
	$(GO) test -fuzz FuzzStreamMatchesFlits -fuzztime 30s ./internal/er/
	$(GO) test -fuzz FuzzHandler -fuzztime 30s ./internal/frontend/
	$(GO) test -fuzz FuzzNoiseMatchesEager -fuzztime 30s ./internal/netsim/
	$(GO) test -fuzz FuzzPickMatchesScan -fuzztime 30s ./internal/netsim/
	$(GO) test -fuzz FuzzPoolLedger -fuzztime 30s ./internal/haas/
	$(GO) test -fuzz FuzzSlotLedger -fuzztime 30s ./internal/haas/

# Go line counts outside cmd/ccperf (the benchmark harness): non-test
# files, then _test.go files.
LOC_FILES = find . -path ./cmd/ccperf -prune -o -name '*.go'
loc:
	@printf 'non-test %d\n' $$($(LOC_FILES) ! -name '*_test.go' -print | xargs cat | wc -l)
	@printf 'test     %d\n' $$($(LOC_FILES) -name '*_test.go' -print | xargs cat | wc -l)

clean:
	$(GO) clean -testcache
