// Command benchmark is the one benchmark for the whole mmX stack: eight
// named workloads (four for the simulator, three for the control plane,
// one for the PHY and AP DSP), nine end-to-end metrics with regression
// bounds, and per-layer numbers from a traced run. BENCHMARK.json at the
// repository root declares it; README.md beside this file explains it.
//
// Usage:
//
//	benchmark -workload all -seed 1 -json out.json
//	benchmark -workload sim-traffic -seed 2 -seconds 12 -trace 0
//	benchmark -workload ctl-paced -trace spans.json -cpuprofile cpu.pprof
//	benchmark -compare parent.json change.json
//	benchmark -compare p1.json,p2.json,p3.json c1.json,c2.json,c3.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed every workload input is generated from (1 = tuning seed, 2 = held-out seed)")
	seconds := flag.Float64("seconds", refSeconds, "measuring time per workload; sets the number of measured repeats")
	scale := flag.Float64("scale", 1, "multiplier on node, op and channel counts")
	trace := flag.String("trace", "0", "0 = untraced run (end-to-end metrics); 1 = traced run (per-layer metrics); a path = traced run that also writes its spans there")
	jsonOut := flag.String("json", "", "write the full report to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the workloads to this file")
	compare := flag.Bool("compare", false, "compare two reports (or two comma-separated sets of reports) given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two arguments: the parent's report(s) and the change's")
		}
		os.Exit(compareMain(strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds <= 0 || *scale <= 0 {
		fatal("-seconds and -scale must be positive")
	}
	cfg := config{Seed: *seed, Scale: *scale, Seconds: *seconds, Traced: *trace != "0" && *trace != ""}
	var selected []workloadDef
	if *workload == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workload); ok {
		selected = []workloadDef{w}
	} else {
		fatal("unknown workload %q", *workload)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal("%v", err)
			}
		}()
	}

	rp := newReport(cfg)
	var traces []traceDoc
	failed := false
	for _, w := range selected {
		var tr *tracer
		if cfg.Traced {
			tr = newTracer()
		}
		res := w.Run(w, cfg, tr)
		if tr != nil {
			traces = append(traces, tr.doc(w.Name))
		}
		rp.Workloads = append(rp.Workloads, res)
		printResult(res, cfg)
		failed = failed || res.OpsFailed > 0
	}
	if *jsonOut != "" {
		if err := rp.write(*jsonOut); err != nil {
			fatal("%v", err)
		}
	}
	if cfg.Traced && *trace != "1" {
		if err := writeTraces(*trace, traces); err != nil {
			fatal("%v", err)
		}
	}
	if len(rp.Workloads) == 1 {
		fmt.Println(contractLine(rp.Workloads[0]))
	}
	if failed {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints every metric of a workload by name, with its unit.
func printResult(r *result, cfg config) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  scale %g  %g s  %s  wall %.2f s  repeats %d (+%d warm-up, %d set-ups)  ops %d  failed %d  fail_frac %g\n",
		r.Workload, cfg.Seed, cfg.Scale, cfg.Seconds, mode, r.WallS, r.Repeats, r.Warmup, r.SetupRepeats,
		r.Ops, r.OpsFailed, r.FailFrac)
	if r.Fingerprint != "" {
		fmt.Printf("   fingerprint %s\n", r.Fingerprint)
	}
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	row := func(name string, m metricValue) {
		note := ""
		if m.Mirror {
			note = "  (mirror of the headline)"
		} else if m.Bound > 0 {
			note = fmt.Sprintf("  bound %.0f%%", m.Bound*100)
		}
		fmt.Printf("   %-30s %14.6g %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n %d%s\n", name, m.Value, m.Unit, m.Median, m.Q1, m.Q3, m.N, note)
	}
	for _, def := range endToEnd {
		if m, ok := r.EndToEnd[def.Name]; ok {
			row(def.Name, m)
		}
	}
	names := make([]string, 0, len(r.PerLayer))
	for name, m := range r.PerLayer {
		if m.N > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		row(name, r.PerLayer[name])
	}
	if len(r.Spans) > 0 {
		fmt.Printf("   %-44s %8s %12s %12s\n", "span", "calls", "total ms", "self ms")
		for _, s := range r.Spans {
			fmt.Printf("   %-44s %8d %12.3f %12.3f\n", s.Name, s.Calls, s.TotalMS, s.SelfMS)
		}
	}
}
