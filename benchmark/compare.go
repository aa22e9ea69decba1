package main

import (
	"fmt"
	"os"
	"sort"
)

// -compare is how two sets of runs are judged: the acceptance check of
// the benchmark itself (two sets of the same code must agree) and every
// later PR (parent against change) use it.

// side is one side of a comparison: one or more reports of one commit.
type side struct {
	reports []*report
}

func loadSide(paths []string) (side, error) {
	var s side
	if len(paths) == 0 {
		return s, fmt.Errorf("-compare: a side has no report")
	}
	for _, p := range paths {
		rp, err := readReport(p)
		if err != nil {
			return s, err
		}
		s.reports = append(s.reports, rp)
	}
	return s, nil
}

// runs returns one value per run of a metric on a workload. With several
// reports a run is a report and its value the report's own; a single
// report's runs are its own repeats. mirror says the cell is not a
// native measurement.
func (s side) runs(workload, metric string) (runs []float64, def metricValue, ok bool) {
	for _, rp := range s.reports {
		for _, r := range rp.Workloads {
			if r.Workload != workload {
				continue
			}
			if metric == failFrac {
				runs = append(runs, r.FailFrac)
				def, ok = metricValue{Unit: "frac", Better: "lower"}, true
				continue
			}
			m, have := r.EndToEnd[metric]
			if !have {
				m, have = r.PerLayer[metric]
			}
			if !have || m.N == 0 {
				continue
			}
			def, ok = m, true
			if len(s.reports) == 1 && len(m.Samples) > 1 {
				return m.Samples, m, true
			}
			runs = append(runs, m.Value)
		}
	}
	return runs, def, ok
}

// value is the side's figure for a metric: the single report's own
// value (its undisturbed reading, not the median of its repeats), else
// the median over reports.
func (s side) value(workload, metric string, runs []float64) float64 {
	if len(s.reports) == 1 && metric != failFrac {
		for _, r := range s.reports[0].Workloads {
			if r.Workload == workload {
				if m, ok := r.EndToEnd[metric]; ok {
					return m.Value
				}
				return r.PerLayer[metric].Value
			}
		}
	}
	return median(runs)
}

// verdict judges the change's runs against the parent's for a metric
// that may worsen by bound (a share of the parent's median; 0 = any
// rise is a regression, as for fail_frac).
func verdict(parent, change []float64, a, b float64, better string, bound float64) string {
	if a == b && spread(parent) == spread(change) {
		return "same"
	}
	worse := b > a
	if better == "higher" {
		worse = b < a
	}
	if bound == 0 {
		if worse {
			return "worse"
		}
		return "better"
	}
	if a == 0 {
		return "unresolved"
	}
	d := (b - a) / a // share of the parent's median, positive = worse
	if better == "higher" {
		d = -d
	}
	noise := max(spread(parent), spread(change))
	if noise > bound {
		// Too noisy to call within the bound — unless every run of one
		// side reads better than every run of the other.
		switch {
		case separated(change, parent, better):
			return "better"
		case separated(parent, change, better) && d > bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case d > bound:
		return "worse"
	case -d > noise && -d > 0.01:
		return "better"
	}
	return "same"
}

// separated reports whether every run of x is better than every run of y.
func separated(x, y []float64, better string) bool {
	xs, ys := sorted(x), sorted(y)
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	if better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// cmpRow is one workload × metric line of a comparison.
type cmpRow struct {
	workload, metric, parent, change, ratio, bound, verdict string
}

// compareSides judges every metric both sides report on every workload,
// end-to-end metrics first, then fail_frac, then the per-layer metrics
// (which have no bound and so no verdict).
func compareSides(parent, change side) []cmpRow {
	var names []string
	for _, def := range endToEnd {
		names = append(names, def.Name)
	}
	names = append(names, failFrac)
	for _, def := range perLayer {
		names = append(names, def.Name)
	}
	cell := func(v float64, runs []float64) string {
		q1, q3 := quartiles(runs)
		return fmt.Sprintf("%.6g [%.6g, %.6g] %d", v, q1, q3, len(runs))
	}
	var rows []cmpRow
	for _, w := range workloads {
		for _, name := range names {
			pr, pdef, ok1 := parent.runs(w.Name, name)
			cr, cdef, ok2 := change.runs(w.Name, name)
			if !ok1 || !ok2 || pdef.Mirror || cdef.Mirror {
				continue
			}
			a, b := parent.value(w.Name, name, pr), change.value(w.Name, name, cr)
			if a == 0 && b == 0 && name != failFrac {
				continue
			}
			row := cmpRow{workload: w.Name, metric: name, parent: cell(a, pr), change: cell(b, cr),
				ratio: "-", bound: "-", verdict: "-"}
			if a != 0 {
				row.ratio = fmt.Sprintf("%.4f (%.6g %s)", b/a, a, pdef.Unit)
			}
			if pdef.Bound > 0 || name == failFrac {
				row.verdict = verdict(pr, cr, a, b, pdef.Better, pdef.Bound)
				row.bound = fmt.Sprintf("%.0f%%", pdef.Bound*100)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareMain prints the comparison and returns the exit code: 1 when a
// metric is worse than its bound allows or a simulated statistic moved.
func compareMain(parentPaths, changePaths []string) int {
	parent, err := loadSide(parentPaths)
	var change side
	if err == nil {
		change, err = loadSide(changePaths)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := false
	const format = "%-13s %-28s %-40s %-40s %-26s %6s  %s\n"
	fmt.Printf(format, "workload", "metric", "parent value [q1, q3] n", "change value [q1, q3] n", "change/parent (base)", "bound", "verdict")
	for _, r := range compareSides(parent, change) {
		fmt.Printf(format, r.workload, r.metric, r.parent, r.change, r.ratio, r.bound, r.verdict)
		bad = bad || r.verdict == "worse"
	}
	if diffs := countDiffs(parent, change); len(diffs) > 0 {
		bad = true
		fmt.Println("\nsimulated statistics differ (a change that only speeds the simulator leaves them identical):")
		for _, d := range diffs {
			fmt.Println("  " + d)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// countDiffs lists every simnet.* count and fingerprint that is not the
// same in every report of both sides. Reports of different seeds,
// scales or run lengths simulate different things and are not compared.
func countDiffs(parent, change side) []string {
	all := append(append([]*report(nil), parent.reports...), change.reports...)
	ref := all[0]
	seen := map[string]string{}
	var diffs []string
	for i, rp := range all {
		if rp.Seed != ref.Seed || rp.Scale != ref.Scale || rp.Seconds != ref.Seconds || rp.Traced != ref.Traced {
			return []string{fmt.Sprintf("report %d was run with another seed, scale, run length or trace mode: counts not compared", i)}
		}
		for _, r := range rp.Workloads {
			note := func(key, val string) {
				key = r.Workload + " " + key
				if prev, ok := seen[key]; !ok {
					seen[key] = val
				} else if prev != val {
					diffs = append(diffs, fmt.Sprintf("%s: %s vs %s (report %d)", key, prev, val, i))
				}
			}
			note("fingerprint", r.Fingerprint)
			for _, name := range simCountNames {
				if m, ok := r.PerLayer[name]; ok {
					note(name, fmt.Sprintf("%.0f", m.Value))
				}
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
