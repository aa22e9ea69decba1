GO ?= go

# Benchmarks gated by the perf-regression harness: the end-to-end frame
# roundtrip, the network SINR engine, and the Fig. 11 BER CDF (the
# Monte Carlo fan-out hot path). The AP wideband demux (the one-pass
# polyphase filterbank) is gated separately so its baseline can be
# refreshed without touching the PHY numbers.
BENCH_PATTERN  ?= OTAMFrameRoundtrip|NetworkSINREvaluation|Fig11BERCDF
BENCH_BASELINE ?= BENCH_phy.json
BENCH_AP_PATTERN  ?= APWidebandDemux
BENCH_AP_BASELINE ?= BENCH_ap.json
# The network scaling curve (sparse coupling core at 1k/10k/100k/1M
# nodes, plus blocker-heavy variants that gate the cost of a
# region-invalidated environment tick) runs each size once — an
# iteration is a whole churning Run, seconds long, so -benchtime=1x
# keeps the gate affordable. RunTraffic times Run alone on
# a frame-dispatch-bound fleet (the scale rungs are two thirds Join)
# and pins the event engine at zero allocations per frame.
BENCH_NET_PATTERN  ?= NetworkScale|RunTraffic
BENCH_NET_BASELINE ?= BENCH_net.json
# The control-plane hot path (batched ingest, pooled frames, append
# encoders): the memnet case gates 0 allocs/op on the pure software
# path; loopback adds real sockets and the recvmmsg/sendmmsg transport.
BENCH_CTL_PATTERN  ?= ControlPlane
BENCH_CTL_BASELINE ?= BENCH_ctl.json
BENCH_OUT      ?= bench.out

.PHONY: build test fmt-check loc deadcode bench bench-baseline bench-check bench-smoke load-smoke profile clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails when gofmt would change any file.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go line count outside benchmark/ — the figure
# simplicity PRs quote before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# deadcode fails when a function declared under internal/ is linked by no
# cmd/*, examples/* or benchmark binary and scripts/deadcode.allow does
# not say why, or when an allowlist entry has gone stale.
deadcode:
	bash scripts/deadcode.sh

# bench runs the gated PHY benchmarks and refreshes $(BENCH_BASELINE) with
# the measured numbers. Commit the refreshed file only from the CI runner
# class (ns/op is machine-dependent; allocs/op is not).
bench: bench-baseline

bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -emit -o $(BENCH_BASELINE) < $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '$(BENCH_AP_PATTERN)' -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -emit -o $(BENCH_AP_BASELINE) < $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '$(BENCH_NET_PATTERN)' -benchtime=1x -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -emit -o $(BENCH_NET_BASELINE) < $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '$(BENCH_CTL_PATTERN)' -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -emit -o $(BENCH_CTL_BASELINE) < $(BENCH_OUT)
	@rm -f $(BENCH_OUT)
	@echo "wrote $(BENCH_BASELINE) $(BENCH_AP_BASELINE) $(BENCH_NET_BASELINE) $(BENCH_CTL_BASELINE)"

# bench-check reruns the gated benchmarks and fails on >15% ns/op
# regression or any allocs/op increase against the committed baselines,
# and on a baseline entry that no benchmark line matches any more.
# The network scaling curve gets a +50% ns/op limit instead: each size
# runs a single multi-second iteration, so wall-clock noise is larger —
# a genuine complexity regression still trips it by an order of
# magnitude, and the allocs/op gate stays strict. The control-plane
# round trip is syscall/scheduler-bound, so it gets the same relaxed
# ns/op limit; its real teeth are the 0 allocs/op pins.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -check -baseline $(BENCH_BASELINE) < $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '$(BENCH_AP_PATTERN)' -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -check -baseline $(BENCH_AP_BASELINE) < $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '$(BENCH_NET_PATTERN)' -benchtime=1x -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -check -baseline $(BENCH_NET_BASELINE) -threshold 0.50 < $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '$(BENCH_CTL_PATTERN)' -benchmem . > $(BENCH_OUT)
	$(GO) run ./cmd/mmx-benchstat -check -baseline $(BENCH_CTL_BASELINE) -threshold 0.50 < $(BENCH_OUT)
	@rm -f $(BENCH_OUT)

# bench-smoke runs the smoke test of the benchmark driver (benchmark/ is
# a module of its own, so `go test ./...` never descends into it): every
# workload at 2% scale, its output checks, and BENCHMARK.json against
# spec.go. About 8 s.
bench-smoke:
	$(GO) -C benchmark test ./...

# load-smoke soaks the socket-backed control plane on loopback: a live
# mmx-apd daemon, a fixed-seed fault-injected mmx-load storm, a daemon
# restart mid-storm, and a convergence assertion on both sides (client
# fleet converged; daemon's final books audit clean with zero leases).
load-smoke:
	bash scripts/load_smoke.sh

# profile runs a representative simulation under the pprof CPU and heap
# profilers; inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/mmx-sim -nodes 12 -duration 2 -blockers 2 \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles: cpu.pprof mem.pprof (go tool pprof <file>)"

clean:
	rm -f $(BENCH_OUT) cpu.pprof mem.pprof
