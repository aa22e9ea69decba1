GO ?= go

.PHONY: build test fmt-check loc deadcode bench-smoke load-smoke profile clean

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
	rm -f cpu.pprof mem.pprof
