#!/usr/bin/env bash
# coverage.sh — every function of the module's library code is reached by
# a shipped run or says why not.
#
# Builds every cmd/*, every examples/* and the benchmark driver with
# coverage over the whole module, runs a fixed list of shipped runs (the
# CI smokes, the examples, the paper experiments, the AP receive and
# waveform tools, the control-plane loopback soak and the benchmark's
# workloads), merges their counters with `go tool covdata`, and compares
# the functions with a reached statement with the functions declared in
# the non-test files that `go list` builds for this platform in the root
# package and under internal/. A declared function in a package no binary
# imports counts as unreached. It fails on:
#
#   - a declared function with no reached statement that
#     scripts/coverage.allow does not name;
#   - an allowlist entry that a run reaches after all, or that names no
#     declared function (the list cannot go stale);
#   - an allowlist entry whose tag is not one of the tags below, or a
#     safety entry whose test does not exist.
#
# Allowlist lines read "<pkg>.<Func>" or "<pkg>.<Type>.<Method>" (the
# package path relative to mmx/internal/, or mmx for the root package),
# then one tag:
#
#   test-oracle        an oracle or introspection the tests read
#   test-fake          a test fake
#   test-knob          a knob only tests set
#   platform           the portable fallback of a platform-specific path
#   interface          a method a Go interface requires
#   safety <TestName>  a fallback no shipped run trips; <TestName> is a
#                      test function that reaches it
#
# The run list must reach the same functions on every run: a function
# whose reach varies is made deterministic by the list, not allowlisted.
#
# Usage: bash scripts/coverage.sh   (or: make cover-audit)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allow="$root/scripts/coverage.allow"
work="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$work"' EXIT
export GOWORK=off LC_ALL=C
# Worker pools take their serial path at one proc: pin the width so that
# what is reached does not depend on the host's core count.
export GOMAXPROCS=2

bin="$work/bin"
mkdir -p "$bin" "$work/data"
cover=(-cover "-coverpkg=mmx/...")
go build -C "$root" "${cover[@]}" -o "$bin/" ./cmd/... ./examples/...
go build -C "$root/benchmark" "${cover[@]}" -o "$bin/benchdrv" .
export GOCOVERDIR="$work/data"

run() { "$@" > "$work/out" 2>&1 || { cat "$work/out"; echo "coverage: run failed: $*"; exit 1; }; }

# The CI mmx-sim smokes (.github/workflows/ci.yml), the 16-AP one also at
# one proc as CI runs it.
churn=(-churn-rate 5 -churn-dwell 0.8)
multiap=(-aps 4 -reuse 2 -roam-hysteresis-db 3 -nodes 12 -room 12x6)
ap16=(-aps 16 -reuse 4 -roam-hysteresis-db 3 -nodes 200 -room 24x24 -coupling sparse
	-blockers 4 -duration 1 -churn-rate 5 -churn-dwell 0.5 -validate -seed 7)
run "$bin/mmx-sim" -nodes 10 -duration 2 "${churn[@]}" -validate -seed 7
run "$bin/mmx-sim" -nodes 10 -duration 2 "${churn[@]}" -validate -coupling sparse -seed 7
run "$bin/mmx-sim" "${multiap[@]}" -blockers 2 -duration 2 "${churn[@]}" -validate -seed 7
run "$bin/mmx-sim" "${multiap[@]}" -coupling sparse -blockers 4 -duration 2 "${churn[@]}" -validate -seed 7
run "$bin/mmx-sim" "${ap16[@]}"
GOMAXPROCS=1 run "$bin/mmx-sim" "${ap16[@]}"
run "$bin/mmx-sim" -nodes 400 -coupling sparse -duration 1 -churn-rate 20 -churn-dwell 0.5 -validate -seed 7
run "$bin/mmx-sim" -nodes 764 -blockers 2 -duration 1 -churn-rate 30 -churn-dwell 0.5 -validate -seed 7
run "$bin/mmx-sim" -nodes 10 -duration 3 -drop 0.25 -dup 0.15 -trunc 0.08 -crash 2@0.4 -reboot 2@1.2 \
	-ap-restart 1.8@0.25 "${churn[@]}" -seed 7
run "$bin/mmx-sim" -nodes 30 -blockers 3 -duration 2 -crash 2@0.4,5@0.9 -reboot 2@1.2 "${churn[@]}" -validate -seed 7

# The examples, the AP receive pipeline, the waveform tool and the paper
# experiments.
for ex in "$root"/examples/*/; do
	run "$bin/$(basename "$ex")"
done
run "$bin/mmx-ap"
run "$bin/mmx-ap" -fdm 200
for sc in distinct equal blocked; do
	run "$bin/mmx-waveform" -scenario "$sc"
done
run "$bin/mmx-waveform" -spectrogram
run "$bin/mmx-bench" -seed 1
run "$bin/mmx-bench" -seed 1 -csv

# The loopback soak's daemon and storm, built covered by the soak script
# itself (GOFLAGS reaches its go build), at a fleet size that fits here.
GOFLAGS="${cover[*]}" CLIENTS=500 run bash "$root/scripts/load_smoke.sh"

# The soak expires a lease only when a fault strands one. Here every
# lease expires: the TTL is shorter than the renew interval, so each
# renew finds its lease swept and rejoins, and a 20 Mbit/s demand fills
# FDM, so the sweeps expire owners whose sharers are live and push their
# promotions.
"$bin/mmx-apd" -listen 127.0.0.1:7456 -lease-ttl 0.2 -expire-every 0.05 > "$work/apd.log" 2>&1 &
apd=$!
sleep 0.3
run "$bin/mmx-load" -addr 127.0.0.1:7456 -clients 64 -sockets 2 -renews 1 -renew-every 1 \
	-ramp 0.5 -demand 20e6 -seed 3
kill -TERM "$apd"
wait "$apd" || { cat "$work/apd.log"; echo "coverage: mmx-apd failed its final audit"; exit 1; }

# The benchmark's workloads, untraced and traced.
run "$bin/benchdrv" -workload all -scale 0.02 -seconds 1
run "$bin/benchdrv" -workload all -scale 0.02 -seconds 1 -trace 1

# Reached: "file:line" of every function with a reached statement, the
# file relative to the module root.
go tool covdata textfmt -i="$work/data" -o "$work/all.out"
grep -v '^mmx/benchmark/' "$work/all.out" > "$work/mmx.out"
(cd "$root" && go tool cover -func="$work/mmx.out") |
	awk '$1 ~ /:$/ && $NF != "0.0%" { sub(/^mmx\//, "", $1); sub(/:$/, "", $1); print $1 }' |
	sort -u > "$work/reached"

# Declared: "symbol file:line" for every func in a non-test file of the
# platform's build.
go list -C "$root" -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' . ./internal/... |
	while read -r pkg file; do
		pkg="${pkg#mmx/internal/}"
		awk -v pkg="$pkg" -v rel="${file#"$root"/}" '
			/^func / {
				line = substr($0, 6)
				recv = ""
				if (line ~ /^\(/) {
					recv = substr(line, 2, index(line, ")") - 2)
					line = substr(line, index(line, ")") + 2)
					n = split(recv, w, " ")
					recv = w[n]
					sub(/^\*/, "", recv)
					sub(/\[.*/, "", recv)
					recv = recv "."
				}
				match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = substr(line, 1, RLENGTH)
				if (recv == "" && (name == "init" || name == "_")) next
				print pkg "." recv name, rel ":" NR
			}' "$file"
	done | sort -k1,1 > "$work/declared"

sed -E 's/#.*//' "$allow" | awk 'NF' > "$work/allow"
awk '{ print $1 }' "$work/allow" | sort > "$work/allowed"

fail=0
report() {
	if [ -s "$2" ]; then
		echo "coverage: $1:"
		sed 's/^/  /' "$2"
		fail=1
	fi
}

# A symbol is reached when its declaration's file:line is.
sort -k2,2 "$work/declared" | join -1 2 -2 1 -o 1.1 - "$work/reached" | sort -u > "$work/hit"
awk '{ print $1 }' "$work/declared" | sort -u | comm -23 - "$work/hit" > "$work/unhit"

comm -23 "$work/unhit" "$work/allowed" | join - "$work/declared" > "$work/unreached"
report "declared, reached by no shipped run, not on scripts/coverage.allow" "$work/unreached"

comm -12 "$work/allowed" "$work/hit" > "$work/stale"
report "on scripts/coverage.allow but reached by a shipped run" "$work/stale"

awk '{ print $1 }' "$work/declared" | sort -u | comm -13 - "$work/allowed" > "$work/missing"
report "on scripts/coverage.allow but declared nowhere" "$work/missing"

awk '!(NF == 2 && $2 ~ /^(test-oracle|test-fake|test-knob|platform|interface)$/ ||
	NF == 3 && $2 == "safety" && $3 ~ /^Test[A-Za-z0-9_]*$/)' "$work/allow" > "$work/badtag"
report "allowlist lines with a missing or unknown tag" "$work/badtag"

: > "$work/notest"
awk '$2 == "safety" && NF == 3 { print $1, $3 }' "$work/allow" |
	while read -r sym test; do
		grep -rqE --include='*_test.go' "^func $test\(" "$root" || echo "$sym $test" >> "$work/notest"
	done
report "safety entries naming no test function" "$work/notest"

if [ "$fail" = 0 ]; then
	echo "coverage: ok ($(wc -l < "$work/hit") of $(awk '{ print $1 }' "$work/declared" | sort -u | wc -l) functions reached, $(wc -l < "$work/allowed") allowlisted)"
fi
exit "$fail"
