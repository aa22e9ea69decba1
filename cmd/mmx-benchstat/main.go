// Command mmx-benchstat is the repo's self-contained benchmark baseline
// tool (no external benchstat dependency): it parses `go test -bench`
// output and either emits a JSON baseline or checks fresh output against a
// committed baseline, failing on regressions.
//
// Usage:
//
//	go test -bench 'Roundtrip|SINR' -benchmem -run '^$' . | mmx-benchstat -emit -o BENCH_phy.json
//	go test -bench 'Roundtrip|SINR' -benchmem -run '^$' . | mmx-benchstat -check -baseline BENCH_phy.json
//
// Check policy (per baseline benchmark):
//
//   - allocs/op may not increase at all — allocation counts are
//     deterministic and machine-independent, so any increase is a real
//     regression;
//   - ns/op may not increase by more than -threshold (default 15%) —
//     wall-clock is machine-dependent, so the committed baseline must come
//     from the same runner class (refresh with `make bench-baseline`);
//   - bytes/op is reported but not gated (size-class rounding makes small
//     shifts noisy).
//
// Benchmarks can be restricted with -match (regexp on the benchmark name,
// default all). A baseline benchmark that passes -match but is missing
// from the run fails the check — a renamed or deleted rung must take its
// baseline entry with it, or its gate would vanish unnoticed. Benchmarks
// only in the run are not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured costs.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed benchmark snapshot.
type Baseline struct {
	// GoVersion records the toolchain that produced the numbers (informational).
	GoVersion string `json:"go_version"`
	// Note reminds readers how to refresh the file.
	Note string `json:"note"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to costs.
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// benchLine matches e.g.
// "BenchmarkOTAMFrameRoundtrip-8  1090  1057803 ns/op  686877 B/op  63 allocs/op"
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads `go test -bench` output and returns name → metrics.
// Repeated runs of one benchmark keep the minimum ns/op (the least-noisy
// sample) and the maximum allocs/op (the most conservative gate).
func parseBench(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		var met Metrics
		fields := strings.Fields(rest)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				met.NsPerOp = v
			case "B/op":
				met.BytesPerOp = v
			case "allocs/op":
				met.AllocsPerOp = v
			}
		}
		if met.NsPerOp == 0 {
			continue
		}
		if prev, dup := out[name]; dup {
			if prev.NsPerOp < met.NsPerOp {
				met.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp > met.AllocsPerOp {
				met.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp > met.BytesPerOp {
				met.BytesPerOp = prev.BytesPerOp
			}
		}
		out[name] = met
	}
	return out, sc.Err()
}

func emit(results map[string]Metrics, path string) error {
	b := Baseline{
		GoVersion:  runtime.Version(),
		Note:       "committed benchmark baseline; refresh with `make bench-baseline` on the CI runner class",
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func check(results map[string]Metrics, baselinePath string, threshold float64, match *regexp.Regexp) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmx-benchstat: read baseline: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "mmx-benchstat: parse baseline: %v\n", err)
		return 2
	}

	var names []string
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failures, compared := 0, 0
	for _, name := range names {
		if match != nil && !match.MatchString(name) {
			continue
		}
		b := base.Benchmarks[name]
		cur, ok := results[name]
		if !ok {
			failures++
			fmt.Printf("FAIL  %-40s not in current run (renamed or deleted? drop its baseline entry)\n", name)
			continue
		}
		compared++
		nsDelta := 0.0
		if b.NsPerOp > 0 {
			nsDelta = (cur.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		status := "ok   "
		if cur.AllocsPerOp > b.AllocsPerOp {
			status = "FAIL "
			failures++
			fmt.Printf("%s %-40s allocs/op %8.0f -> %8.0f (must not increase)\n",
				status, name, b.AllocsPerOp, cur.AllocsPerOp)
			continue
		}
		if nsDelta > threshold {
			status = "FAIL "
			failures++
		}
		fmt.Printf("%s %-40s ns/op %12.0f -> %12.0f (%+6.1f%%, limit +%.0f%%)  allocs/op %6.0f -> %6.0f\n",
			status, name, b.NsPerOp, cur.NsPerOp, 100*nsDelta, 100*threshold,
			b.AllocsPerOp, cur.AllocsPerOp)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "mmx-benchstat: %d benchmark(s) regressed or missing\n", failures)
		return 1
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "mmx-benchstat: no benchmarks compared (bad -match or empty input?)")
		return 2
	}
	fmt.Printf("all %d benchmark(s) within limits\n", compared)
	return 0
}

func main() {
	emitMode := flag.Bool("emit", false, "emit a JSON baseline from bench output on stdin")
	checkMode := flag.Bool("check", false, "check bench output on stdin against -baseline")
	out := flag.String("o", "-", "output path for -emit ('-' = stdout)")
	baselinePath := flag.String("baseline", "BENCH_phy.json", "baseline file for -check")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op increase for -check")
	matchExpr := flag.String("match", "", "regexp restricting which baseline benchmarks are checked")
	flag.Parse()

	if *emitMode == *checkMode {
		fmt.Fprintln(os.Stderr, "mmx-benchstat: exactly one of -emit or -check is required")
		os.Exit(2)
	}
	var match *regexp.Regexp
	if *matchExpr != "" {
		var err error
		if match, err = regexp.Compile(*matchExpr); err != nil {
			fmt.Fprintf(os.Stderr, "mmx-benchstat: bad -match: %v\n", err)
			os.Exit(2)
		}
	}
	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmx-benchstat: read stdin: %v\n", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "mmx-benchstat: no benchmark lines on stdin")
		os.Exit(2)
	}
	if *emitMode {
		if err := emit(results, *out); err != nil {
			fmt.Fprintf(os.Stderr, "mmx-benchstat: %v\n", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(check(results, *baselinePath, *threshold, match))
}
