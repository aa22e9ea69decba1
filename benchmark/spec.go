package main

// The names fixed here are the vocabulary later PRs claim and defend
// numbers in; BENCHMARK.json at the repo root declares the same names
// (bench_test.go checks the two agree).

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it is a regression; 0 for per-layer
	// metrics, which have none.
	Bound float64
}

// End-to-end metrics, host time unless the name says sim.
//
// The timing bounds are the contract's maximum, 25%, not the 10% the
// issue asked for: on the reference box (2 shared vCPUs) the same code
// reads 20-40% apart between a quiet and a busy half hour, even as the
// undisturbed reading every metric reports (README, "Spread"), and a
// bound inside the noise would reject every change at random.
// ctl_p99_us is not here: two sets of runs could not hold it (spread
// 50-70%), so by the issue's rule it is the per-layer
// netctl.paced_p99_us.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"admit_per_s", "1/s", "higher", 0.25},
	{"sim_rate_x", "x", "higher", 0.25},
	{"sim_frames_per_s", "1/s", "higher", 0.25},
	{"heap_b_per_node", "B", "lower", 0.05},
	{"ctl_ops_per_s", "1/s", "higher", 0.25},
	{"ctl_p50_us", "us", "lower", 0.25},
	{"link_frames_per_s", "1/s", "higher", 0.25},
	{"ap_frames_per_s", "1/s", "higher", 0.25},
}

// failFrac is reported by the driver's own JSON and by -compare, where
// its bound is absolute (any rise is a regression). It cannot be an
// end_to_end entry of BENCHMARK.json, whose metrics are never 0 and
// whose bounds are shares of a median; there it is the failed/attempted
// pair of the result line.
const failFrac = "fail_frac"

// Per-layer metrics: measured from outside, around the calls into each
// module's public functions. A metric a workload does not exercise
// reads 0 on that workload.
var perLayer = []metricDef{
	{"simnet.join_us_p50", "us", "lower", 0},
	{"simnet.join_us_p99", "us", "lower", 0},
	{"simnet.join_allocs", "count", "lower", 0},
	{"simnet.run_cpu_s", "s", "lower", 0},
	{"simnet.run_par", "frac", "higher", 0},
	{"simnet.run_allocs_per_frame", "count", "lower", 0},
	{"simnet.tick_ms", "ms", "lower", 0},
	{"simnet.roam_screen_ms", "ms", "lower", 0},
	{"simnet.reports_cold_ms", "ms", "lower", 0},
	{"simnet.reports_warm_ms", "ms", "lower", 0},
	{"simnet.validate_ms", "ms", "lower", 0},
	{"simnet.frames_sent", "count", "higher", 0},
	{"simnet.frames_lost", "count", "lower", 0},
	{"simnet.frames_dropped", "count", "lower", 0},
	{"simnet.frames_outage", "count", "lower", 0},
	{"simnet.joins", "count", "higher", 0},
	{"simnet.leaves", "count", "higher", 0},
	{"simnet.joins_failed", "count", "lower", 0},
	{"simnet.roams", "count", "higher", 0},
	{"simnet.roams_failed", "count", "lower", 0},

	{"core.link_eval_us", "us", "lower", 0},
	{"core.link_eval_crowd_us", "us", "lower", 0},
	{"channel.beam_gains_us", "us", "lower", 0},
	{"channel.paths_per_eval", "count", "lower", 0},
	{"channel.env_step_us", "us", "lower", 0},
	{"tma.gain_table_us", "us", "lower", 0},
	{"tma.best_harmonic_us", "us", "lower", 0},

	{"mac.join_ns", "ns", "lower", 0},
	{"mac.renew_ns", "ns", "lower", 0},
	{"mac.release_ns", "ns", "lower", 0},
	{"mac.allocs_per_op", "count", "lower", 0},
	{"mac.audit_ms", "ms", "lower", 0},
	{"mac.sdm_share_frac", "frac", "lower", 0},
	{"mac.reject_frac", "frac", "lower", 0},

	{"netctl.mem_ns_per_op", "ns", "lower", 0},
	{"netctl.mem_allocs_per_op", "count", "lower", 0},
	{"netctl.udp_ns_per_op", "ns", "lower", 0},
	{"netctl.handled_per_op", "frac", "lower", 0},
	{"netctl.shed", "count", "lower", 0},
	{"netctl.malformed", "count", "lower", 0},
	{"netctl.promotes", "count", "higher", 0},
	{"netctl.expired", "count", "lower", 0},
	{"netctl.client_retries", "count", "lower", 0},
	{"netctl.join_p50_us", "us", "lower", 0},
	{"netctl.join_p99_us", "us", "lower", 0},
	{"netctl.renew_p50_us", "us", "lower", 0},
	{"netctl.renew_p99_us", "us", "lower", 0},
	{"netctl.release_p50_us", "us", "lower", 0},
	{"netctl.release_p99_us", "us", "lower", 0},
	{"netctl.paced_p99_us", "us", "lower", 0},
	{"netctl.late_frac", "frac", "lower", 0},
	{"netctl.late_p99_us", "us", "lower", 0},
	{"netctl.over_limit_frac", "frac", "lower", 0},
	{"netctl.leases_end", "count", "lower", 0},

	{"core.tx_us", "us", "lower", 0},
	{"core.rx_us", "us", "lower", 0},
	{"modem.synth_us", "us", "lower", 0},
	{"modem.demod_us", "us", "lower", 0},
	{"rf.digitize_us", "us", "lower", 0},
	{"dsp.fft256_us", "us", "lower", 0},
	{"dsp.fir_us", "us", "lower", 0},
	{"apdsp.extract_all_ms", "ms", "lower", 0},
	{"apdsp.allocs_per_extract", "count", "lower", 0},
	{"apdsp.receive_all_ms", "ms", "lower", 0},
	{"modem.stream_rx_us", "us", "lower", 0},
	{"tma.mix_ms", "ms", "lower", 0},
	{"tma.extract_ms", "ms", "lower", 0},

	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.num_gc", "count", "lower", 0},
	{"go.heap_peak_mb", "MB", "lower", 0},
	{"go.mallocs", "count", "lower", 0},

	{"trace_overhead_frac", "frac", "lower", 0},
}

// workloadDef is one named set of inputs.
type workloadDef struct {
	Name string
	Why  string
	// Headline is the workload's own figure that the contract cells it
	// does not measure natively mirror (see result.fillMirrors).
	Headline string
	Run      func(w workloadDef, cfg config, tr *tracer) *result
}

var workloads = []workloadDef{
	{"sim-admit", "admission only: GainTable, sparse addNode/discovery, mac handshake, one link evaluation per join; almost no DES and no env ticks",
		"admit_per_s", runSimAdmit},
	{"sim-traffic", "frame-dispatch bound: event heap and frame scheduling dominate Run; link evaluation and region code idle - what a timing wheel must move",
		"sim_frames_per_s", runSimTraffic},
	{"sim-blockers", "env-tick bound: walkers make every tick re-evaluate links and map swept regions; the event heap is idle - simnet used the opposite way",
		"sim_rate_x", runSimBlockers},
	{"sim-multiap", "16 APs with reuse 4 and hysteresis roaming: the roam screen and the only cross-shard edges; the ROADMAP's unexplained rung",
		"sim_rate_x", runSimMultiAP},
	{"ctl-renew", "closed loop, 256 lifecycles in flight, 99% renews over loopback UDP: capacity of the read-mostly keepalive path the daemon lives on",
		"ctl_ops_per_s", runCtlRenew},
	{"ctl-churn", "closed loop, 256 in flight, join then release with no renews: 100% allocator writes, address intern and evict - the re-join herd",
		"ctl_ops_per_s", runCtlChurn},
	{"ctl-paced", "open loop at a fixed rate well below capacity, latency from the due time: independent IoT nodes; reports how late the generator ran",
		"ctl_ops_per_s", runCtlPaced},
	{"phy-ap", "OTAM round trips and 200-channel filterbank ReceiveAll: only rf/modem/dsp/apdsp/tma work; guards the fold-the-duals simplicity PRs",
		"link_frames_per_s", runPhyAP},
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
