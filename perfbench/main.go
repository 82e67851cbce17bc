// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed number of seconds and prints, as the last line
// of standard output, a JSON object with the keys correct, attempted,
// failed and metrics. Human-readable tables go on the lines before it.
//
//	perfbench -server <schedserve binary> -out <dir> \
//	    --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (BENCHMARK.json declares, and so gates, corpus and
// serve-best; the cache pair runs the same way but is not declared:
// on a shared 2-core machine its run-to-run spread exceeded the bounds):
//
//	corpus        the paper's Table 1 corpus through core.Evaluate, in-process
//	serve-unique  POST /schedule?heuristic=MCP, content-unique graphs (cache misses)
//	serve-repeat  the same client, 90% copies of a small pool (cache hits)
//	serve-best    POST /schedule?quality=best&budget=20ms, content-unique graphs
//
// A served run starts a fresh schedserve, generates every request body
// from the seed, warms up, then measures a closed loop over `workers`
// connections and an open loop at the workload's fixed rate, in 1 s
// windows; every reply is checked in the pause after its window.
//
// Every workload reports all eight end-to-end metrics:
//
//	setup_s            corpus: generating the corpus; served: schedserve
//	                   launch to a ready /healthz plus generating the
//	                   bodies. Median of three set-ups.
//	schedules_per_s    schedules computed and validated per second:
//	                   corpus, median over whole passes; served, cache
//	                   misses per second, median over closed-loop windows.
//	served_per_s       corpus: graphs evaluated by every heuristic per
//	                   second; served: successful replies per second,
//	                   median over closed-loop windows.
//	latency_p50_ms,    corpus: per-graph evaluation time (each graph's
//	latency_p99_ms     median over the passes); served: the open loop,
//	                   timed from when each request was due, a failed
//	                   request counting as failedLatency.
//	best_gap_pct       mean (makespan − bound) / makespan: the proven
//	                   bound of the quality tier on serve-best, the
//	                   communication-free critical path elsewhere (the
//	                   best heuristic per graph on corpus).
//	best_proven_share  share of schedules whose makespan equals the bound.
//	peak_rss_mb        VmHWM of the process under test: this process for
//	                   corpus, the schedserve child when served.
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports per-layer metrics and writes its spans to
// <out>/trace-<workload>-<seed>.jsonl. run.sh builds both binaries from
// the checkout and passes -server and -out.
//
// The run exits 1 when any output is wrong (an invalid schedule, a
// makespan mismatch, a broken gap identity or a corpus hash mismatch);
// it still prints the result line, with correct set to false. Set-up
// errors exit 2 without a result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	_ "schedcomp/internal/heuristics/clans"
	_ "schedcomp/internal/heuristics/dcp"
	_ "schedcomp/internal/heuristics/dls"
	_ "schedcomp/internal/heuristics/dsc"
	_ "schedcomp/internal/heuristics/etf"
	_ "schedcomp/internal/heuristics/ez"
	_ "schedcomp/internal/heuristics/hu"
	_ "schedcomp/internal/heuristics/lc"
	_ "schedcomp/internal/heuristics/mcp"
	_ "schedcomp/internal/heuristics/mh"
	_ "schedcomp/internal/heuristics/random"
)

// workers is the number of connections, client goroutines and
// evaluation workers the benchmark drives work with.
var workers = runtime.NumCPU()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns to main.
type outcome struct {
	attempted, failed int
	// wrong counts outputs that failed a correctness check; any makes
	// the run exit 1.
	wrong   int
	metrics map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	out      string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	var writeRef string
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.server, "server", "", "schedserve binary (serve-* workloads)")
	flag.StringVar(&o.out, "out", "", "directory for the span trace")
	flag.StringVar(&writeRef, "write-corpus-ref", "", "evaluate the reference corpus once and write its schedule hashes to this file")
	flag.Parse()
	o.trace = trace == 1

	if writeRef != "" {
		if err := writeCorpusRef(writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if w.served() && o.server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: serve-* workloads need -server")
		return 2
	}

	var out *outcome
	var err error
	if w.name == "corpus" {
		out, err = runCorpus(o)
	} else {
		out, err = runServed(o, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := checkDeclared(w.name, o.trace, out.metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	printTable(w.name, o.trace, out.metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d outputs failed their correctness check\n", out.wrong)
		return 1
	}
	return 0
}

// checkDeclared checks the run's metrics, names and units, against the
// list BENCHMARK.json declares for the run's kind, when the file is in
// the working directory.
func checkDeclared(workload string, traced bool, ms map[string]metric) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	type declared struct{ Name, Unit string }
	var decl struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if !slices.ContainsFunc(decl.Workloads, func(d declared) bool { return d.Name == workload }) {
		fmt.Printf("workload %s is not in BENCHMARK.json: measured, but not gated\n", workload)
	}
	list := decl.EndToEnd
	if traced {
		list = decl.PerLayer
	}
	for _, d := range list {
		if m, ok := ms[d.Name]; !ok || m.Unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json declares %s in %s, the run reports %+v", d.Name, d.Unit, m)
		}
	}
	if len(ms) != len(list) {
		return fmt.Errorf("the run reports %d metrics, BENCHMARK.json declares %d", len(ms), len(list))
	}
	return nil
}

// printTable prints every metric by name with its unit.
func printTable(workload string, traced bool, ms map[string]metric) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s metrics, workload %s\n", kind, workload)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank rule; xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}
