package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdict is how a metric reads on the change (B) against the parent (A).
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "WORSE"
	unresolved verdict = "unresolved"
)

// quartiles returns the first, second and third quartile of values as
// Python's statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0,4] at the ends: Python extrapolates
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// judge applies the choosing-metrics rule (sections 6 to 8) to one metric
// on one workload. a is the parent's runs, b the change's.
//
//   - worse: b's median is worse than a's by more than the bound.
//   - better: b's median is better by more than a's quartile spread, and b
//     wins at least nine tenths of the runs paired in order.
//   - unresolved: either side's quartile spread is wider than the bound,
//     unless every run of one side beats every run of the other.
func judge(def metricDef, a, b []float64) verdict {
	aq1, ma, aq3 := quartiles(a)
	bq1, mb, bq3 := quartiles(b)
	// gain > 0 means b reads better.
	sign := 1.0
	if def.better == "lower" {
		sign = -1
	}
	gain := sign * (mb - ma)
	scale := math.Abs(ma)
	if scale == 0 {
		scale = 1
	}

	allBetter, allWorse := true, true
	for _, va := range a {
		for _, vb := range b {
			if sign*(vb-va) <= 0 {
				allBetter = false
			}
			if sign*(vb-va) >= 0 {
				allWorse = false
			}
		}
	}
	noisy := math.Max(aq3-aq1, bq3-bq1)/scale > def.bound
	if noisy && !allBetter && !allWorse {
		return unresolved
	}
	if -gain/scale > def.bound {
		return worse
	}
	pairs, wins := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			pairs++
			if sign*(b[i]-a[i]) > 0 {
				wins++
			}
		}
	}
	if gain > aq3-aq1 && pairs > 0 && float64(wins) >= 0.9*float64(pairs) {
		return better
	}
	return same
}

// readRecords loads the untraced results of an -append file, grouped by
// workload then metric, in file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: a run of %s failed its checks", path, rec.Workload)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload with every end-to-end metric's
// verdict, then the medians and spreads behind every verdict but "same".
// It fails when any metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %-17s", d.name)
	}
	fmt.Fprintln(w)
	var details []string
	worseCount := 0
	for _, wl := range workloads {
		va, vb := a[wl.name], b[wl.name]
		if va == nil || vb == nil {
			continue
		}
		fmt.Fprintf(w, "%-13s", wl.name)
		for _, d := range endToEnd {
			if len(va[d.name]) == 0 || len(vb[d.name]) == 0 {
				fmt.Fprintf(w, " %-17s", "-")
				continue
			}
			v := judge(d, va[d.name], vb[d.name])
			fmt.Fprintf(w, " %-17s", v)
			if v == worse {
				worseCount++
			}
			if v != same {
				aq1, am, aq3 := quartiles(va[d.name])
				bq1, bm, bq3 := quartiles(vb[d.name])
				details = append(details, fmt.Sprintf("%s %s: %s; A median %.4f [%.4f, %.4f] n=%d, B median %.4f [%.4f, %.4f] n=%d, bound %g of A's median (%s is better)",
					wl.name, d.name, v, am, aq1, aq3, len(va[d.name]), bm, bq1, bq3, len(vb[d.name]), d.bound, d.better))
			}
		}
		fmt.Fprintln(w)
	}
	for _, line := range details {
		fmt.Fprintln(w, line)
	}
	if worseCount > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worseCount)
	}
	return nil
}
