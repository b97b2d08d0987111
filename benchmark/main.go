// Command benchmark measures the served path of a live cache cloud: it
// boots a real loopback-HTTP cluster in-process from internal/node's
// public constructors, drives it with a seeded closed-loop and open-loop
// client, checks every reply, and prints end-to-end metrics (untraced) or
// the per-layer cost ladder, hop spans and counts (traced). See README.md.
//
//	go run ./benchmark                        every workload, both passes
//	go run ./benchmark -workload hot-local    one untraced run, result as the last line
//	go run ./benchmark -workload hot-local -trace 1
//	go run ./benchmark -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// buildDir is where the benchmark keeps what it writes: the durable
// tier's directories while a run lasts, and the span dumps. It is relative
// to the working directory (the repository root) and git-ignored.
const buildDir = ".bench_build"

// result is one run's last output line, in the driver's format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result with its inputs: one line of an -append file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if errors.Is(err, errRefused) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all, both passes)")
		seed    = fs.Int64("seed", 1, "seed for the trace, node routing, tenants and arrival times")
		seconds = fs.Float64("seconds", 16, "measured seconds per run (closed + open phase)")
		traced  = fs.Int("trace", 0, "1 = traced pass: ladder, hop spans and counts instead of end-to-end metrics")
		appendF = fs.String("append", "", "append each result as a JSON line to this file (input to -compare)")
		compare = fs.Bool("compare", false, "compare two -append files: benchmark -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	tmpRoot := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: traffic crosses the loopback interface; the cluster shares this process with the generator; "+
		"num_cpu=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var todo []*workload
	if *name == "" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = append(todo, w)
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	modes := []int{*traced}
	if *name == "" {
		modes = []int{0, 1}
	}

	var last result
	var failed []string
	// report[workload]["end_to_end" | "per_layer"] is the full run's output.
	report := map[string]map[string]map[string]metric{}
	for _, w := range todo {
		report[w.name] = map[string]map[string]metric{}
		for _, mode := range modes {
			res, err := runWorkload(w, *seed, *seconds, mode == 1, tmpRoot)
			printMetrics(w.name, mode, res)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if *appendF != "" {
				if err := appendRecord(*appendF, record{w.name, *seed, *seconds, mode, res}); err != nil {
					return err
				}
			}
			if !res.Correct {
				failed = append(failed, w.name)
			}
			last = res
			report[w.name][[]string{"end_to_end", "per_layer"}[mode]] = res.Metrics
		}
	}
	// One workload: the driver's result line. All of them: one document.
	var out any = report
	if *name != "" {
		out = last
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runWorkload makes one run in the driver's sense. Untraced: setupRuns
// set-ups, the last of which carries one pass of the full length;
// end-to-end metrics. Traced: the ladder, then an
// untraced and a traced pass of half the length each; the per-layer
// metrics come from the three together.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, tmpRoot string) (result, error) {
	if !traced {
		setups := make([]time.Duration, 0, setupRuns)
		for len(setups) < setupRuns-1 {
			d, err := rehearseSetup(w, seed, seconds, tmpRoot)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d)
		}
		p, err := runUndisturbed(w, seed, seconds, tmpRoot)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, p.setup)
		fmt.Fprintf(os.Stderr, "benchmark: %s: set-ups took %v; setup_s is the median\n", w.name, setups)
		slices.Sort(setups)
		p.setup = setups[len(setups)/2]
		return publish(w, p.endToEndMetrics(), p)
	}
	metrics, err := runLadder(seed, tmpRoot)
	if err != nil {
		return result{}, err
	}
	plain, err := runUndisturbed(w, seed, seconds/2, tmpRoot)
	if err != nil {
		return result{}, err
	}
	tp, err := runPass(w, seed, seconds/2, true, tmpRoot)
	if err != nil {
		return result{}, err
	}
	sum := analyse(tp.spans)
	for k, v := range spanMetrics(sum) {
		metrics[k] = v
	}
	for k, v := range plain.countMetricValues(tp, sum) {
		metrics[k] = v
	}
	if sum.orphans > 0 {
		tp.problems = append(tp.problems, fmt.Sprintf("%d of %d spans have a parent that was never recorded", sum.orphans, sum.total))
	}
	if gap := math.Abs(float64(sum.docSelfNs-sum.docDurNs)) / float64(sum.docDurNs); gap > 0.02 {
		tp.problems = append(tp.problems, fmt.Sprintf("named span self times cover %.1f%% of client.doc latency, not 100%%", 100*float64(sum.docSelfNs)/float64(sum.docDurNs)))
	}
	dump := filepath.Join(buildDir, "spans-"+w.name+".json")
	if err := writeSpans(dump, tp.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d spans written to %s\n", w.name, len(tp.spans), dump)
	return publish(w, metrics, plain, tp)
}

// setupRuns is how many times an untraced run sets its workload up;
// setup_s is the median. All but the last are torn down at once.
const setupRuns = 3

// passAttempts is how often an untraced pass is made before the run
// refuses. On this box the generator misses its schedule in about one pass
// in twenty-five (a neighbour's burst); three in a row is something else.
const passAttempts = 3

// runUndisturbed makes an untraced pass, again if the generator could not
// keep its schedule, and returns the last one made. A pass that failed a
// check is final, unless all that failed is ops left without a 200 while
// the generator was stalled too.
func runUndisturbed(w *workload, seed int64, seconds float64, tmpRoot string) (*pass, error) {
	for attempt := 1; ; attempt++ {
		p, err := runPass(w, seed, seconds, false, tmpRoot)
		if err != nil || p.hard > 0 || len(p.refusals()) == 0 || attempt == passAttempts {
			return p, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: pass %d discarded: %s\n", w.name, attempt, strings.Join(append(p.refusals(), p.problems...), "; "))
	}
}

// publish turns passes into a result, or refuses: the numbers of a run in
// which the generator could not keep its schedule describe the generator.
func publish(w *workload, metrics map[string]metric, passes ...*pass) (result, error) {
	res := result{Correct: true, Metrics: metrics}
	for _, p := range passes {
		res.Attempted += p.attempted()
		res.Failed += p.failed()
		for _, problem := range p.problems {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: CHECK FAILED: %s\n", w.name, problem)
		}
	}
	// Only the untraced pass is held to the schedule: tracing slows the
	// cluster by design and its latencies are never published.
	if reasons := passes[0].refusals(); res.Correct && len(reasons) > 0 {
		return res, fmt.Errorf("%w: %s", errRefused, strings.Join(reasons, "; "))
	}
	open := passes[0].open
	docs, _ := open.count(opDoc)
	pubs, _ := open.count(opPublish)
	fmt.Fprintf(os.Stderr, "benchmark: %s: open phase %d /doc and %d /publish samples over %v; closed phase %d ops in %v\n",
		w.name, docs, pubs, passes[0].eng.sched.openDur, len(passes[0].closed.ops), passes[0].closed.wall.Round(1e6))
	return res, nil
}

func printMetrics(workload string, mode int, res result) {
	defs := endToEnd
	if mode == 1 {
		defs = perLayer()
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "%-13s %-36s %14.4f %s\n", workload, d.name, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
