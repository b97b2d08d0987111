package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// is [3.5, 13.5, 31.0]; of [5.0, 3.0] it is [2.5, 4.0, 5.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 3})
	if q1 != 2.5 || q2 != 4 || q3 != 5.5 {
		t.Errorf("quartiles of two values %v %v %v, want 2.5 4 5.5", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	rps := metricDef{"doc_rps", "1/s", "higher", 0.10}
	lat := metricDef{"doc_p50_ms", "ms", "lower", 0.10}
	parent := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"the same code twice", rps, parent, []float64{101, 100, 100, 99, 101}, same},
		{"a fifth slower", rps, parent, []float64{80, 81, 79, 80, 82}, worse},
		{"a fifth faster", rps, parent, []float64{120, 121, 119, 122, 120}, better},
		{"latency up a fifth", lat, parent, []float64{120, 121, 119, 122, 120}, worse},
		{"latency down a fifth", lat, parent, []float64{80, 81, 79, 80, 82}, better},
		{"within the bound, every run lower", rps, parent, []float64{95, 96, 94, 95, 97}, same},
		{"spread wider than the bound", rps, []float64{100, 140, 70, 120, 85}, []float64{95, 150, 60, 110, 90}, unresolved},
		{"wide spread, yet every run better", rps, []float64{100, 140, 70, 120, 85}, []float64{200, 260, 190, 230, 210}, better},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps float64) string {
		var b bytes.Buffer
		for i := 0; i < 5; i++ {
			rec := record{Workload: "hot-local", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"doc_rate_rel": {rps + float64(i), "ratio"},
				"busy_p50_rel": {1.2, "ratio"},
			}}}
			line, _ := json.Marshal(rec)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1000), write("same.jsonl", 1001), write("slow.jsonl", 700)
	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("the same numbers compared as worse: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), string(worse)) || strings.Contains(out.String(), string(better)) {
		t.Errorf("the same numbers are not all the same:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, slow); err == nil || !strings.Contains(out.String(), "hot-local doc_rate_rel: WORSE") {
		t.Errorf("a 30%% drop was not reported as worse (err %v):\n%s", err, out.String())
	}
}
