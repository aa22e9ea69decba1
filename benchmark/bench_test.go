package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// specManifest is the BENCHMARK.json that spec.go implies.
func specManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// TestManifest keeps BENCHMARK.json and spec.go saying the same thing,
// inside the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := specManifest()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and spec.go disagree; run go test -run TestManifest -update\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range want.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, contract allows 1 to 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, m := range want.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload traced at a tiny size and checks that
// every metric BENCHMARK.json names comes out with its unit, that every
// correctness check passes, that the simulator workloads repeat exactly
// for a seed, and that a report compared with itself is "same".
func TestSmoke(t *testing.T) {
	cfg := config{Seed: 1, Scale: 0.02, Seconds: 1, Traced: true}
	rp := newReport(cfg)
	for _, w := range workloads {
		res := w.Run(w, cfg, newTracer())
		rp.Workloads = append(rp.Workloads, res)
		if res.OpsFailed != 0 || res.Ops == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.OpsFailed, res.Ops, res.Failures)
		}
		for _, def := range endToEnd {
			m, ok := res.EndToEnd[def.Name]
			if !ok || m.Unit != def.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing, zero or in the wrong unit: %+v", w.Name, def.Name, m)
			}
			if (def.Name == "setup_s" || def.Name == w.Headline) && m.Mirror {
				t.Errorf("%s: %s must be measured, not mirrored", w.Name, def.Name)
			}
		}
		for _, def := range perLayer {
			if m, ok := res.PerLayer[def.Name]; !ok || m.Unit != def.Unit {
				t.Errorf("%s: per-layer metric %s missing or in the wrong unit", w.Name, def.Name)
			}
		}
		if res.PerLayer["trace_overhead_frac"].N == 0 {
			t.Errorf("%s: trace_overhead_frac not reported", w.Name)
		}
		if len(res.Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.Name)
		}
	}

	// Same seed, second invocation: the simulated statistics must repeat.
	for i, w := range workloads[:2] {
		again := w.Run(w, cfg, newTracer())
		first := rp.Workloads[i]
		if again.Fingerprint == "" || again.Fingerprint != first.Fingerprint {
			t.Errorf("%s: fingerprint %q then %q for the same seed", w.Name, first.Fingerprint, again.Fingerprint)
		}
		for _, name := range simCountNames {
			if a, b := first.PerLayer[name].Value, again.PerLayer[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v for the same seed", w.Name, name, a, b)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rp.write(path); err != nil {
		t.Fatal(err)
	}
	self, err := loadSide([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	rows := compareSides(self, self)
	if len(rows) < len(workloads)*3 {
		t.Errorf("self-comparison has only %d rows", len(rows))
	}
	for _, r := range rows {
		if r.verdict != "same" && r.verdict != "-" {
			t.Errorf("self-comparison: %s %s is %q", r.workload, r.metric, r.verdict)
		}
	}
	if diffs := countDiffs(self, self); len(diffs) != 0 {
		t.Errorf("self-comparison: counts differ: %v", diffs)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"within the bound", []float64{97, 98, 96, 97, 99}, "higher", 0.10, "same"},
		{"past the bound", []float64{85, 86, 84, 85, 87}, "higher", 0.10, "worse"},
		{"clear gain", []float64{120, 121, 119, 120, 122}, "higher", 0.10, "better"},
		{"lower is better", []float64{120, 121, 119, 120, 122}, "lower", 0.10, "worse"},
		{"too noisy to call", []float64{60, 140, 95, 100, 105}, "higher", 0.10, "unresolved"},
		{"noisy but every run better", []float64{150, 250, 180, 200, 220}, "higher", 0.10, "better"},
		{"absolute bound", []float64{101, 101, 101, 101, 101}, "lower", 0, "worse"},
	} {
		if got := verdict(parent, c.change, median(parent), median(c.change), c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestUndisturbed(t *testing.T) {
	// Three passes over the same three stretches; a burst (the 9s) hits a
	// different stretch of each. The undisturbed pass is 1+2+3.
	passes := [][]float64{{9, 2, 3}, {1, 9, 3.5}, {1.5, 2.5, 9}}
	if got := undisturbed(passes); got != 6 {
		t.Errorf("undisturbed = %v, want 6", got)
	}
	if got := undisturbed([][]float64{{4}, {3}, {5}}); got != 3 {
		t.Errorf("one stretch per pass: undisturbed = %v, want the fastest pass, 3", got)
	}
	if best([]float64{4, 3, 5}, "higher") != 5 || best([]float64{4, 3, 5}, "lower") != 3 {
		t.Error("best picks the wrong side")
	}
}
