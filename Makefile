# Configurable Cloud reproduction — common workflows.

GO ?= go

.PHONY: all build vet test test-short race bench bench-json bench-check cover-frontend e2e experiments examples fuzz docs telemetry clean

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

# Hot-path benchmark packages: the sim kernel, the fabric, and the
# on-fabric network services. BENCH_10.json is the
# committed baseline the CI perf guard compares fresh runs against:
# ns/op within ±15%, allocs/op a hard ceiling (±2%).
BENCH_PKGS = ./internal/sim/... ./internal/netsim/ ./internal/kvcache/ ./internal/rpcnic/
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
	$(GO) run ./examples/multifpga
	$(GO) run ./examples/bioinformatics

# Brief fuzzing passes over the wire decoders and the KV store.
fuzz:
	$(GO) test -fuzz FuzzDecode$$ -fuzztime 30s ./internal/pkt/
	$(GO) test -fuzz FuzzDecodeLTL -fuzztime 30s ./internal/pkt/
	$(GO) test -fuzz FuzzEncodeDecodeUDP -fuzztime 30s ./internal/pkt/
	$(GO) test -fuzz FuzzHandleFrame -fuzztime 30s ./internal/ltl/
	$(GO) test -fuzz FuzzDecodeReq -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzDecodeResp -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzStoreOps -fuzztime 30s ./internal/kvcache/
	$(GO) test -fuzz FuzzDecodeReq -fuzztime 30s ./internal/rpcnic/
	$(GO) test -fuzz FuzzDecodeResp -fuzztime 30s ./internal/rpcnic/

clean:
	$(GO) clean -testcache
