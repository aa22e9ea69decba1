// Command fmacheck fails when an arm64 build fuses a floating-point
// multiply-add that scripts/fma.allow does not explain.
//
// The Go spec lets a compiler fuse x*y + z into one instruction that
// rounds once; amd64 never does, arm64 does wherever it can, so a fused
// product can give an arm64 run different bits from the amd64 run. An
// explicit float64(x*y) forbids the fusion. fmacheck cross-compiles every
// cmd/* binary for linux/arm64, disassembles each with go tool objdump,
// and counts the fused ops (FMADDD, FMSUBD, FNMADDD, FNMSUBD and their
// single-precision forms) per function of this module. It fails on:
//
//   - a function with a fused op that the allow list does not name;
//   - an allow-list entry that names no function with a fused op (the
//     list cannot go stale);
//   - an entry with a missing or unknown tag, or named twice.
//
// Allow-list lines read "<function> <tag> [<path>]", the function as
// objdump names it without "(SB)" and with "mmx/internal/" dropped
// (root-package functions keep "mmx."). The tags:
//
//	exact         every fused op rounds as the unfused pair would
//	off-contract  on no path whose output a test or golden pins
//	open <path>   on a contract path whose fusions are still to clear;
//	              <path> is sim (simnet runs: fingerprints and goldens),
//	              ctl (the AP's books and trace hashes), phy (waveforms,
//	              receivers and filterbank outputs) or figures (the paper
//	              experiments mmx-bench prints)
//
// Usage: go run ./scripts/fmacheck [-v]   (or: make fmacheck)
// With -v it prints every fused function with its op count and the
// source lines of its fused ops.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

var fusedOps = map[string]bool{
	"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true,
	"FMADDS": true, "FMSUBS": true, "FNMADDS": true, "FNMSUBS": true,
}

var contractPaths = map[string]bool{"sim": true, "ctl": true, "phy": true, "figures": true}

// fused is one function's fused ops: the most any binary holds, and the
// source lines they come from, in address order.
type fused struct {
	ops int
	at  []string
}

func main() {
	verbose := flag.Bool("v", false, "print every fused function")
	flag.Parse()
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp("", "fmacheck")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	build := exec.Command("go", "build", "-o", work+string(os.PathSeparator), "./cmd/...")
	build.Dir = root
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0", "GOWORK=off")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fatal(fmt.Errorf("arm64 build: %w", err))
	}
	bins, err := filepath.Glob(filepath.Join(work, "*"))
	if err != nil || len(bins) == 0 {
		fatal(fmt.Errorf("no binaries built in %s", work))
	}
	found := map[string]fused{}
	for _, bin := range bins {
		counts, err := scan(bin)
		if err != nil {
			fatal(err)
		}
		for fn, f := range counts {
			if f.ops > found[fn].ops {
				found[fn] = f
			}
		}
	}

	allowPath := filepath.Join(root, "scripts", "fma.allow")
	allow, problems, err := readAllow(allowPath)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(found))
	for fn := range found {
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		if *verbose {
			fmt.Printf("%-52s %3d  %s\n", fn, found[fn].ops, strings.Join(found[fn].at, " "))
		}
		if _, ok := allow[fn]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %d fused op(s), at %s, not on scripts/fma.allow", fn, found[fn].ops, strings.Join(found[fn].at, " ")))
		}
	}
	tags := map[string]int{}
	for fn, tag := range allow {
		tags[tag]++
		if _, ok := found[fn]; !ok {
			problems = append(problems, fmt.Sprintf("%s: on scripts/fma.allow but no arm64 binary fuses an op in it", fn))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		fmt.Fprintln(os.Stderr, "fmacheck:")
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		os.Exit(1)
	}
	fmt.Printf("fmacheck: ok (%d binaries, %d fused functions allowlisted: %d exact, %d off-contract, %d open)\n",
		len(bins), len(found), tags["exact"], tags["off-contract"], tags["open"])
}

// scan disassembles one binary and counts the fused ops in each function
// of this module.
func scan(bin string) (map[string]fused, error) {
	cmd := exec.Command("go", "tool", "objdump", bin)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	counts := map[string]fused{}
	fn := ""
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn = ""
			sym, _, _ := strings.Cut(rest, " ")
			sym = strings.TrimSuffix(sym, "(SB)")
			if strings.HasPrefix(sym, "mmx.") {
				fn = sym
			} else if s, ok := strings.CutPrefix(sym, "mmx/internal/"); ok {
				fn = s
			} else if strings.HasPrefix(sym, "mmx/") {
				fn = sym
			}
			continue
		}
		if fn == "" {
			continue
		}
		// "  file.go:12  0xaddr  encoding  MNEMONIC args"
		f := strings.Fields(line)
		if len(f) >= 4 && fusedOps[f[3]] {
			c := counts[fn]
			if !slices.Contains(c.at, f[0]) {
				c.at = append(c.at, f[0])
			}
			c.ops++
			counts[fn] = c
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("objdump %s: %w", filepath.Base(bin), err)
	}
	return counts, nil
}

// readAllow parses the allow list into function → tag, reporting lines
// with a bad tag or path and functions named twice.
func readAllow(path string) (map[string]string, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	allow := map[string]string{}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		bad := func(why string) {
			problems = append(problems, fmt.Sprintf("scripts/fma.allow:%d: %s: %q", i+1, why, strings.TrimSpace(line)))
		}
		switch {
		case len(f) == 2 && (f[1] == "exact" || f[1] == "off-contract"):
		case len(f) == 3 && f[1] == "open" && contractPaths[f[2]]:
		default:
			bad("want \"<function> exact|off-contract\" or \"<function> open sim|ctl|phy|figures\"")
			continue
		}
		if _, dup := allow[f[0]]; dup {
			bad("named twice")
		}
		allow[f[0]] = f[1]
	}
	return allow, problems, nil
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", fmt.Errorf("run fmacheck inside the module")
	}
	return filepath.Dir(mod), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmacheck:", err)
	os.Exit(2)
}
