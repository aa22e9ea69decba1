GO ?= go

.PHONY: build test fmt-check loc cover-audit fmacheck bench-smoke load-smoke profile clean

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

# cover-audit builds every cmd/*, examples/* and the benchmark driver with
# coverage, runs the shipped runs (CI smokes, examples, experiments, the
# loopback soak, the benchmark's workloads), and fails when a function of
# the root package or internal/ has no reached statement and
# scripts/coverage.allow does not say why, or when an allowlist entry has
# gone stale. About 35 s.
cover-audit:
	bash scripts/coverage.sh

# fmacheck fails when an arm64 build of a cmd/* binary fuses a
# floating-point multiply-add in a function that scripts/fma.allow does
# not list with a tag, or when an allowlist entry has gone stale. It
# cross-compiles, so it runs on any host. About 10 s.
fmacheck:
	$(GO) run ./scripts/fmacheck

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
