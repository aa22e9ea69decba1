#!/usr/bin/env bash
# deadcode.sh — every function under internal/ is reached by a binary or
# says why not.
#
# Links every cmd/*, every examples/* and the benchmark driver with
# inlining off (-gcflags=all=-l, so a call inlined away still leaves its
# callee in the symbol table), lists the mmx/internal/... functions the
# linker kept (instantiations' [...] and closures' .funcN stripped), and
# compares them with the functions declared in the non-test files that
# `go list` builds for this platform under internal/. It fails on:
#
#   - a declared function no binary links and scripts/deadcode.allow does
#     not name;
#   - an allowlist entry that a binary links after all, or that names no
#     declared function (the list cannot go stale);
#   - an allowlist entry whose reason is not one of the tags below.
#
# Allowlist lines read "<pkg>.<Func>" or "<pkg>.<Type>.<Method>" (the
# package path relative to mmx/internal/), then one reason tag:
#
#   test-oracle   an oracle or introspection the tests read
#   test-fake     a test fake, or an interface method the interface needs
#   facade        reached only through the public mmx package's API
#   test-knob     a knob only tests set
#   out-of-scope  kept on purpose until a named ROADMAP item folds it
#
# Usage: bash scripts/deadcode.sh   (or: make deadcode)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allow="$root/scripts/deadcode.allow"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
export GOWORK=off LC_ALL=C

# Linked: one symbol per line as pkg.Func or pkg.Type.Method.
for dir in "$root"/cmd/* "$root"/examples/* "$root/benchmark"; do
	go build -C "$dir" -gcflags=all=-l -o "$work/bin" .
	go tool nm "$work/bin"
done |
	sed -nE 's#^ *[0-9a-f]+ [Tt] mmx/internal/##p' |
	sed -E '
		:strip
		s/\[[^][]*\]//
		t strip
		s/-fm$//
		s/(\.(func|gowrap|deferwrap)[0-9]+)+(\.[0-9]+)*$//
		s/\(\*([^)]*)\)/\1/' |
	sort -u > "$work/linked"

# Declared: "symbol file:line" for every func in a non-test file of the
# platform's build.
go list -C "$root" -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	while read -r pkg file; do
		awk -v pkg="${pkg#mmx/internal/}" -v rel="${file#"$root"/}" '
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
		echo "deadcode: $1:"
		sed 's/^/  /' "$2"
		fail=1
	fi
}

awk '{ print $1 }' "$work/declared" | sort -u |
	comm -23 - "$work/linked" | comm -23 - "$work/allowed" |
	join - "$work/declared" > "$work/unreached"
report "declared under internal/, linked by no binary, not on scripts/deadcode.allow" "$work/unreached"

comm -12 "$work/allowed" "$work/linked" > "$work/stale"
report "on scripts/deadcode.allow but linked by a binary" "$work/stale"

awk '{ print $1 }' "$work/declared" | sort -u | comm -13 - "$work/allowed" > "$work/missing"
report "on scripts/deadcode.allow but declared nowhere" "$work/missing"

awk 'NF != 2 || $2 !~ /^(test-oracle|test-fake|facade|test-knob|out-of-scope)$/' \
	"$work/allow" > "$work/badreason"
report "allowlist lines with a missing or unknown reason tag, or more than one" "$work/badreason"

if [ "$fail" = 0 ]; then
	echo "deadcode: ok ($(wc -l < "$work/linked") linked, $(wc -l < "$work/allowed") allowlisted)"
fi
exit "$fail"
