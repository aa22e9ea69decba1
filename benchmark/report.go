package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// refSeconds is the measuring time the default repeat counts are sized
// for; it equals run_seconds in BENCHMARK.json.
const refSeconds = 12

// config is what one workload run is parameterised by. Everything a
// workload feeds the program under test is generated from Seed.
type config struct {
	Seed uint64
	// Scale multiplies node, op and channel counts; 1 is the size the
	// contract's run budget fits, the smoke test uses 0.02.
	Scale float64
	// Seconds sets how many measured repeats run: the repeat counts are
	// a fixed function of it, never of the clock, so the simulated
	// counts of a run depend on (seed, scale, seconds) alone.
	Seconds float64
	Traced  bool
}

// count scales a size, keeping at least least.
func (c config) count(base, least int) int {
	return max(int(math.Round(float64(base)*c.Scale)), least)
}

// repeats scales a measured-repeat count sized for refSeconds.
func (c config) repeats(base int) int {
	return max(int(math.Round(float64(base)*c.Seconds/refSeconds)), 2)
}

// metricValue is one reported number. Value is the undisturbed reading
// (the best repeat, or the work over the undisturbed time of a pass cut
// into stretches); the median and quartiles over the repeats and the
// sample count are written beside it.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the per-repeat values behind Value, kept so -compare
	// can tell "every run better" from "medians differ".
	Samples []float64 `json:"samples,omitempty"`
	// Mirror marks a contract cell this workload does not measure
	// natively (see fillMirrors); -compare and the README skip them.
	Mirror bool `json:"mirror,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Traced   bool    `json:"traced"`
	WallS    float64 `json:"wall_s"`
	// Repeats are measured; Warmup repeats ran first and were discarded;
	// SetupRepeats is how many times set-up ran (setup_s is their median).
	Repeats      int `json:"repeats"`
	Warmup       int `json:"warmup_repeats"`
	SetupRepeats int `json:"setup_repeats"`
	// Ops counts everything attempted (joins, churn events, control
	// ops, frames, audits and other checks); OpsFailed those that
	// failed, errored or were shed, and the checks that did not hold.
	Ops       int64    `json:"ops"`
	OpsFailed int64    `json:"ops_failed"`
	FailFrac  float64  `json:"fail_frac"`
	Failures  []string `json:"failures,omitempty"`
	// Fingerprint hashes every simulated statistic of the measured
	// repeats; a change that only speeds the simulator leaves it alone.
	Fingerprint string                 `json:"fingerprint,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
	Spans       []spanSummary          `json:"spans,omitempty"`

	start rtSnap
}

func newResult(w workloadDef, cfg config) *result {
	return &result{
		Workload: w.Name, Why: w.Why, Traced: cfg.Traced,
		EndToEnd: map[string]metricValue{},
		PerLayer: map[string]metricValue{},
		start:    snapRuntime(),
	}
}

// attempt records n attempted operations.
func (r *result) attempt(n int) { r.Ops += int64(n) }

// failf records n failed operations with the reason.
func (r *result) failf(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.OpsFailed += int64(n)
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check is one attempted correctness check that fails unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.failf(1, format, args...)
	}
}

// set reports a metric from its per-repeat samples: the value is the
// best of them.
func (r *result) set(name string, samples ...float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric not in spec.go: " + name)
	}
	r.setValue(name, best(samples, def.Better), samples)
}

// setValue reports a metric whose value is computed from stretches of
// the repeats (see undisturbed); the samples give the median and the
// quartiles beside it.
func (r *result) setValue(name string, value float64, samples []float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric not in spec.go: " + name)
	}
	q1, q3 := quartiles(samples)
	mv := metricValue{
		Value: value, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Median: median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples,
	}
	if def.Bound > 0 {
		r.EndToEnd[name] = mv
	} else {
		r.PerLayer[name] = mv
	}
}

// setPercentiles reports the median and the p99 of a latency sample in
// µs; p99 falls back to the highest percentile the sample supports
// when it is too small.
func (r *result) setPercentiles(p50Name, p99Name string, us []float64) {
	if len(us) == 0 {
		return
	}
	asc := sorted(us)
	top := math.Min(99, tailPercentile(len(asc)))
	r.set(p50Name, percentile(asc, 50))
	r.set(p99Name, percentile(asc, top))
}

// fillMirrors completes the contract's result line, which has every
// workload print every end-to-end metric, never 0. A workload measures
// natively only the metrics of the layer it drives; each remaining cell
// mirrors the workload's headline figure — units of its own work per
// host second in a higher-is-better cell, host µs per unit in a
// lower-is-better one — so a cell is always a measurement of this run
// and a regression of the workload shows in its whole row. Mirrors are
// flagged and nobody cites them.
func (r *result) fillMirrors(headline string) {
	h, ok := r.EndToEnd[headline]
	if !ok || h.Value <= 0 {
		return
	}
	rate := func(v float64) float64 {
		if h.Better == "lower" { // a latency in µs: units per second
			return 1e6 / v
		}
		return v
	}
	for _, def := range endToEnd {
		if _, have := r.EndToEnd[def.Name]; have {
			continue
		}
		conv := rate
		if def.Better == "lower" {
			conv = func(v float64) float64 { return 1e6 / rate(v) }
		}
		samples := make([]float64, len(h.Samples))
		for i, s := range h.Samples {
			samples[i] = conv(s)
		}
		q1, q3 := quartiles(samples)
		r.EndToEnd[def.Name] = metricValue{
			Value: conv(h.Value), Unit: def.Unit, Better: def.Better, Bound: def.Bound,
			Median: median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples, Mirror: true,
		}
	}
}

// finish stamps the totals, the Go runtime's per-workload numbers and,
// on a traced run, zeroes for the layers the workload does not touch.
func (r *result) finish(w workloadDef, cfg config, wall time.Duration, tr *tracer) {
	r.WallS = wall.Seconds()
	if r.Ops > 0 {
		r.FailFrac = float64(r.OpsFailed) / float64(r.Ops)
	}
	r.fillMirrors(w.Headline)
	end := snapRuntime()
	r.set("go.gc_pause_ms", float64(end.pauseNS-r.start.pauseNS)/1e6)
	r.set("go.num_gc", float64(end.numGC-r.start.numGC))
	r.set("go.heap_peak_mb", float64(end.heapSys)/(1<<20))
	r.set("go.mallocs", float64(end.mallocs-r.start.mallocs))
	if !cfg.Traced {
		return
	}
	for _, def := range perLayer {
		if _, have := r.PerLayer[def.Name]; !have {
			r.PerLayer[def.Name] = metricValue{Unit: def.Unit, Better: def.Better}
		}
	}
	r.Spans = summarize(tr.all())
}

// rtSnap is a reading of the Go runtime's cumulative counters.
type rtSnap struct {
	mallocs, pauseNS, heapSys uint64
	numGC                     uint32
	cpuS                      float64
}

func snapRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{
		mallocs: m.Mallocs, pauseNS: m.PauseTotalNs,
		heapSys: m.HeapSys, numGC: m.NumGC, cpuS: processCPUSeconds(),
	}
}

// liveHeap collects garbage and returns the bytes still reachable.
// Two collections: what sync.Pools hold survives the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// report is the driver's own JSON document (-json).
type report struct {
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       uint64    `json:"seed"`
	Scale      float64   `json:"scale"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Workloads  []*result `json:"workloads"`
}

func newReport(cfg config) *report {
	return &report{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds, Traced: cfg.Traced,
	}
}

func (rp *report) write(path string) error {
	b, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(b, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// contractLine is the one-line result the BENCHMARK.json contract asks
// for as the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if r.Traced {
		src = r.PerLayer
	}
	metrics := make(map[string]mv, len(src))
	for name, m := range src {
		metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.OpsFailed == 0, r.Ops, r.OpsFailed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
