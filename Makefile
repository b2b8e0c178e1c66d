GO ?= go

.PHONY: all build test race vet bench microbench simdram-quick loadtest fleettest paper clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Root bench_test.go: end-to-end experiment timings with allocation counts.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' .

# Hot-path microbenchmarks: store/cache/DRAM/hierarchy/CPU fast paths and
# the stream-folding layer.
microbench:
	$(GO) test -bench 'Access|Store|CPU|Slice|Stream' -benchmem -run '^$$' \
		./internal/mem/ ./internal/cache/ ./internal/dram/ \
		./internal/memsys/ ./internal/proc/

# Reproduce the SIMDRAM CI gate locally: the quick array sweep on the
# bit-serial backend must match the committed baseline exactly, and must
# be identical for any worker count.
simdram-quick:
	$(GO) build -o /tmp/apbench-simdram ./cmd/apbench
	$(GO) build -o /tmp/apreport-simdram ./cmd/apreport
	/tmp/apbench-simdram -experiment array -quick -backend simdram -json > /tmp/simdram-j1.txt
	/tmp/apbench-simdram -experiment array -quick -backend simdram -json -jobs 8 > /tmp/simdram-j8.txt
	cmp /tmp/simdram-j1.txt /tmp/simdram-j8.txt
	/tmp/apreport-simdram -tol 0 ci/baseline-array-quick-simdram.txt /tmp/simdram-j1.txt

# Boot the daemon, drive it with the load generator, and shut it down:
# one-command smoke of the serve stack plus a tail-latency summary.
loadtest:
	$(GO) build -o /tmp/apserved ./cmd/apserved
	$(GO) build -o /tmp/apload ./cmd/apload
	@/tmp/apserved -addr 127.0.0.1:8098 -workers 2 2> /tmp/apserved-loadtest.log & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:8098/healthz > /dev/null && break; sleep 0.2; done; \
	/tmp/apload -addr http://127.0.0.1:8098 -n 50 -c 8 -experiment array -quick; rc=$$?; \
	kill -TERM $$pid; wait $$pid; exit $$rc

# Boot a consistent-hash fleet (router + 3 in-process shards) and drive it
# with a Zipf-skewed spec mix: one-command smoke of the content-addressed
# cache + sharding stack, reporting throughput and cache hit rate.
fleettest:
	$(GO) build -o /tmp/aprouted ./cmd/aprouted
	$(GO) build -o /tmp/apload ./cmd/apload
	@/tmp/aprouted -addr 127.0.0.1:8099 -spawn 3 -workers 2 -loglevel warn 2> /tmp/aprouted-fleettest.log & \
	pid=$$!; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:8099/healthz > /dev/null && break; sleep 0.2; done; \
	/tmp/apload -addr http://127.0.0.1:8099 -n 500 -c 8 -zipf 1.1 -specs 12 -seed 7; rc=$$?; \
	curl -s http://127.0.0.1:8099/metrics | grep -E 'ap_router_(requests|retries|shed|cache_hits|cache_misses)'; \
	kill -TERM $$pid; wait $$pid; exit $$rc

# Regenerate every table and figure of the paper's evaluation.
paper:
	$(GO) run ./cmd/apbench -experiment all

clean:
	$(GO) clean ./...
