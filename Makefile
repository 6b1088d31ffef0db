GO ?= go

.PHONY: build fmt-check vet fusecu-vet vet-fix-list test test-race test-race-service serve-load-race chaos-smoke test-checks fuzz-smoke bench bench-serve bench-full bench-compare bench-baseline check

build:
	$(GO) build ./...

## fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

## fusecu-vet runs the repo's own invariant analyzers (internal/analysis)
## over the default and the fusecuchecks-tagged file sets. Findings are
## captured in fusecu-vet.txt (uploaded as a CI artifact) and always echoed
## in full before a non-zero exit aborts the build.
fusecu-vet:
	@$(GO) run ./cmd/fusecu-vet ./... > fusecu-vet.txt 2>&1; s=$$?; \
	$(GO) run ./cmd/fusecu-vet -tags fusecuchecks ./... >> fusecu-vet.txt 2>&1 || s=$$?; \
	cat fusecu-vet.txt; \
	if [ $$s -eq 0 ]; then echo "fusecu-vet: clean"; fi; \
	exit $$s

## vet-fix-list renders current findings grouped by analyzer (largest bucket
## first) for triage sweeps. Reporting only: always exits 0.
vet-fix-list:
	$(GO) run ./cmd/fusecu-vet -group ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## test-race-service is the focused race pass over the HTTP service stack
## (admission gate, metrics registry, the inbound HTTP/1.1 server, graceful
## shutdown).
test-race-service:
	$(GO) test -race ./internal/service ./internal/metrics ./internal/h1 ./cmd/fusecu-serve

## serve-load-race runs the in-process serve-load smoke under the race
## detector: concurrent /v1/search waves through the router and the
## admission gate, the configuration most likely to surface a data race.
serve-load-race:
	$(GO) run -race ./cmd/fusecu-bench -serve-load -serve-out BENCH_serve_race.json

## chaos-smoke runs the deterministic chaos schedule under the race
## detector: a routed 3-replica fleet at full wave concurrency with replicas
## hard-killed and restarted mid-wave, and hedging forced by an injected
## latency plan. The run asserts zero non-enveloped failures, bit-identity
## of every 200 against the reference engine, in-request recovery
## (failovers + hedge wins >= kills), ejection of killed replicas, and
## re-admission within one probe period. Results land in
## BENCH_serve_chaos.json.
chaos-smoke:
	$(GO) run -race ./cmd/fusecu-bench -serve-load -chaos -replicas 3 -hedge-after 25ms -serve-out BENCH_serve_chaos.json

## test-checks builds with the fusecuchecks tag so internal/invariant
## assertions (checked multiplies, MA lower-bound checks) panic on violation.
test-checks:
	$(GO) test -tags=fusecuchecks ./...

## fuzz-smoke runs each native fuzz target briefly: the request-decode
## strictness invariants, the tiling-constructor contracts, the router
## relay's handling of arbitrary upstream reply bytes, the inbound server's
## handling of arbitrary client bytes, and the canonical walk's exactness
## against the frozen full and coarse reference scans.
## Failing
## inputs are minimized into testdata/fuzz corpora for regression.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzDecodeOptimizeRequest$$' -fuzztime=20s -run='^$$' ./internal/service
	$(GO) test -fuzz='^FuzzDecodeSearchRequest$$' -fuzztime=20s -run='^$$' ./internal/service
	$(GO) test -fuzz='^FuzzNewTiling$$' -fuzztime=20s -run='^$$' ./internal/dataflow
	$(GO) test -fuzz='^FuzzRelayResponse$$' -fuzztime=20s -run='^$$' ./internal/route
	$(GO) test -fuzz='^FuzzServeConn$$' -fuzztime=20s -run='^$$' ./internal/h1
	$(GO) test -fuzz='^FuzzAnalyticOptimum$$' -fuzztime=20s -run='^$$' ./internal/search

## bench is the CI smoke pass: every benchmark runs once, then fusecu-bench
## times DAT (the coarse walk plus the GA) and the analytic engine against
## DAT on the frozen reference scan and writes BENCH_search.json (verifying
## that both DATs return identical results and the analytic engine stays on
## the principle line).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./...
	$(GO) run ./cmd/fusecu-bench -out BENCH_search.json

## bench-serve load-tests a routed 3-replica fusecu-serve fleet under
## concurrent /v1/search waves over the serve-load shape set and writes
## BENCH_serve.json (throughput, latency quantiles, per-replica request
## counts, and bit-identity against the reference engine).
bench-serve:
	$(GO) run ./cmd/fusecu-bench -serve-load -serve-out BENCH_serve.json -replicas 3

## bench-compare reruns the search-layer, principle-optimizer, fused
## tile-OS/IS (internal/fusion), /v1/evaluate (internal/arch), router
## proxy-handler (internal/route), inbound-connection (internal/h1) and
## replica-handler (internal/service) microbenchmarks and diffs the medians
## against the committed baseline with the stdlib-only fusecu-benchstat
## (CI has no network for x/perf's benchstat). The target is blocking: it
## fails when any benchmark's median runs more than BENCH_GATE× the
## baseline, or when a baseline benchmark vanished. The tolerance absorbs
## shared-runner noise (per-benchmark spikes up to ~1.7× observed on
## loaded single-core runners) while still catching the class of
## regression this gate exists for — the principle optimizer sliding back
## to a linear tile sweep, which measures 40× and up on the core LLM
## benchmarks, core pricing its walks through the scalar cost.Evaluate
## instead of the compiled kernel, which measures 3× and up on the same
## benchmarks, and
## the core and fused walks pricing every trip-count plateau instead of one
## point per run, which measures 4× and up on the core LLM benchmarks and
## on BenchmarkTileOSISLLM/align=1, and /v1/search's exhaustive and coarse
## engines sliding back from the canonical walk to a per-request lattice
## scan, which measures about 200× slower on BenchmarkSearchHotWalk, and
## the router's own per-request work growing back: BenchmarkProxyHandler
## times it with a socket-free canned-reply Transport, and the per-request
## shape-hash body parse and http.Client path it replaced measure 1.9× there,
## and the inbound server's per-request work growing: BenchmarkServeConn
## runs one keep-alive connection's loop on the benchmark goroutine over a
## scripted in-memory connection, so no goroutine handoff or scheduling
## enters its time, and net/http.Server, which it replaced, allocated 24
## times per request against its 11, which the allocs column shows, and
## a replica's own per-request work growing back: BenchmarkSearchHotHandler
## serves search-hot's 54 bodies through the service handler. The
## per-request context.WithTimeout timers and formatted loop-order names it
## replaced measure only 1.2× there, but allocate 36 times per request
## against 23, which the allocs column shows.
## Set BENCH_GATE=0 for the old advisory behaviour.
BENCH_BASELINE ?= bench/baseline_search.txt
BENCH_GATE ?= 1.75
bench-compare:
	mkdir -p bench
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 -benchtime=0.1s ./internal/search ./internal/core ./internal/fusion ./internal/arch ./internal/route ./internal/h1 ./internal/service > bench/current_search.txt
	@$(GO) run ./cmd/fusecu-benchstat -gate $(BENCH_GATE) $(BENCH_BASELINE) bench/current_search.txt > bench/compare_search.txt 2>&1; s=$$?; \
	cat bench/compare_search.txt; \
	exit $$s

## bench-baseline refreshes the committed baseline bench-compare diffs
## against. Run it on a quiet machine and commit the result.
bench-baseline:
	mkdir -p bench
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 -benchtime=0.1s ./internal/search ./internal/core ./internal/fusion ./internal/arch ./internal/route ./internal/h1 ./internal/service > $(BENCH_BASELINE)

## bench-full is the measurement pass: statistically meaningful benchmark
## iterations plus the paper's full 32KiB-32MiB Fig. 9 sweep.
bench-full:
	$(GO) test -run='^$$' -bench=. -benchmem ./...
	$(GO) run ./cmd/fusecu-bench -full -out BENCH_search.json

## check is the full CI gate. Ordering matters: the cheap formatting and
## lint gates run first so their findings print before any long test phase,
## and fusecu-vet always echoes its full finding list before aborting.
check: fmt-check build vet fusecu-vet test test-race test-race-service test-checks fuzz-smoke bench bench-compare bench-serve chaos-smoke
