package main

import (
	"encoding/json"
	"os"
	"testing"
)

// A one-second run of each workload (at a tenth of its size) prints every
// declared metric exactly once, with its declared unit, and passes its own
// correctness checks.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	tmp := t.TempDir()
	ladder, err := runLadder(1, tmp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := shrunk(&workloads[i])
		plain, err := runPass(&w, 1, 1, false, tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runPass(&w, 1, 1, true, tmp)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, p := range []*pass{plain, traced} {
			for _, problem := range p.problems {
				t.Errorf("%s: check failed: %s", w.name, problem)
			}
		}
		sum := analyse(traced.spans)
		if sum.orphans != 0 || sum.byName[spClientDoc].count == 0 {
			t.Errorf("%s: %d orphans among %d spans, %d client.doc spans", w.name, sum.orphans, sum.total, sum.byName[spClientDoc].count)
		}
		if gap := float64(sum.docSelfNs-sum.docDurNs) / float64(sum.docDurNs); gap > 0.02 || gap < -0.02 {
			t.Errorf("%s: named self times are %.3f of client.doc latency", w.name, 1+gap)
		}

		expectMetrics(t, w.name+" end-to-end", endToEnd, plain.endToEndMetrics())
		layers := map[string]metric{}
		for _, m := range []map[string]metric{ladder, spanMetrics(sum), plain.countMetricValues(traced, sum)} {
			for name, v := range m {
				if _, dup := layers[name]; dup {
					t.Errorf("%s: %s is reported twice", w.name, name)
				}
				layers[name] = v
			}
		}
		expectMetrics(t, w.name+" per-layer", perLayer(), layers)
	}
}

func expectMetrics(t *testing.T, what string, defs []metricDef, got map[string]metric) {
	t.Helper()
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s is missing", what, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, d.name, m.Unit, d.unit)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(defs))
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program prints. They must say the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(what string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", what, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", what, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", what, d.name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer(), false)
}
