// Command schedbench regenerates the paper's full evaluation: it
// builds the classified random-PDG corpus (Table 1), runs the five
// heuristics on every graph, and prints Tables 2–11 and Figures 1–6.
//
// Usage:
//
//	schedbench [-seed N] [-graphs N] [-min N] [-max N] [-figures] [-table1]
//
// With the defaults it reproduces the paper-scale experiment: 60
// classes × 35 graphs = 2100 PDGs of 40–120 nodes.
//
// Profiling and telemetry for the report run:
//
//	schedbench -cpuprofile cpu.out -memprofile mem.out
//	schedbench -metrics -trace
//
// -metrics enables the internal/obs registry and dumps every counter
// and histogram in the Prometheus text format on exit; -trace records
// per-phase spans (corpus, evaluate, report) and prints the
// flame-style tree. Both are off by default and cost nothing when off.
//
// Schedule identity is pinned by go test (TestGoldenScheduleHashes in
// internal/heuristics); corpus throughput and per-heuristic ns and
// allocs are measured by the perfbench module's corpus workload and
// its --trace mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"schedcomp"
	"schedcomp/internal/experiments"
	"schedcomp/internal/obs"
	"schedcomp/internal/report"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		seed        = flag.Int64("seed", 1994, "corpus random seed")
		graphs      = flag.Int("graphs", 35, "graphs per class (paper: 35)")
		minN        = flag.Int("min", 40, "minimum graph size in nodes")
		maxN        = flag.Int("max", 120, "maximum graph size in nodes")
		figures     = flag.Bool("figures", true, "render Figures 1-6 as text charts")
		table1      = flag.Bool("table1", false, "print the 60-row corpus composition (Table 1)")
		extensions  = flag.Bool("extensions", false, "also run the extension experiments (optimality gap, wider weight ranges, duplication, metric comparison, extended comparison)")
		saveDir     = flag.String("save", "", "save the generated corpus to this directory")
		loadDir     = flag.String("load", "", "load a previously saved corpus instead of generating")
		markdown    = flag.String("markdown", "", "also write the full report as markdown to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		withMetrics = flag.Bool("metrics", false, "enable the obs registry and dump it (Prometheus text) on exit")
		withTrace   = flag.Bool("trace", false, "record per-phase spans and print the trace tree on exit")
	)
	flag.Parse()

	if *withMetrics {
		obs.Default().SetEnabled(true)
	}
	var tr *obs.Trace // nil unless -trace; every method is nil-safe
	if *withTrace {
		tr = obs.NewTrace("schedbench")
	}
	defer func() {
		if tr != nil {
			fmt.Println()
			fmt.Print(tr.Tree())
		}
		if *withMetrics {
			fmt.Println()
			_ = obs.Default().WritePrometheus(os.Stdout)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		}()
	}

	var c *schedcomp.Corpus
	var err error
	start := time.Now()
	spCorpus := tr.Span("corpus")
	if *loadDir != "" {
		fmt.Printf("loading corpus from %s...\n", *loadDir)
		c, err = schedcomp.LoadCorpus(*loadDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus load failed:", err)
			return 1
		}
	} else {
		spec := schedcomp.PaperCorpusSpec(*seed)
		spec.GraphsPerSet = *graphs
		spec.MinNodes = *minN
		spec.MaxNodes = *maxN
		fmt.Printf("generating corpus: 60 classes x %d graphs (%d-%d nodes), seed %d...\n",
			spec.GraphsPerSet, spec.MinNodes, spec.MaxNodes, spec.Seed)
		c, err = schedcomp.GenerateCorpus(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpus generation failed:", err)
			return 1
		}
	}
	spCorpus.End()
	corpusGen := time.Since(start)
	fmt.Printf("corpus ready: %d graphs in %v\n", c.NumGraphs(), corpusGen.Round(time.Millisecond))
	if *saveDir != "" {
		if err := c.Save(*saveDir); err != nil {
			fmt.Fprintln(os.Stderr, "corpus save failed:", err)
			return 1
		}
		fmt.Printf("saved corpus to %s\n", *saveDir)
	}

	if *table1 {
		fmt.Println()
		fmt.Println(schedcomp.CorpusTable(c))
	}

	start = time.Now()
	fmt.Println("evaluating CLANS, DSC, MCP, MH, HU on every graph...")
	spEval := tr.Span("evaluate")
	ev, err := schedcomp.Evaluate(c)
	spEval.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluation failed:", err)
		return 1
	}
	fmt.Printf("evaluated %d schedules in %v\n\n", 5*c.NumGraphs(), time.Since(start).Round(time.Millisecond))

	spReport := tr.Span("report")
	for _, t := range schedcomp.Tables(ev) {
		fmt.Println(t)
	}
	if *figures {
		for _, f := range schedcomp.Figures(ev) {
			fmt.Println(f)
		}
	}
	spReport.End()

	var ext []*schedcomp.Table
	if *extensions {
		if ext, err = experiments.Extensions(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "extension experiments failed:", err)
			return 1
		}
	}

	if *markdown != "" {
		f, err := os.Create(*markdown)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		err = report.Write(f, c, ev, report.Options{Extensions: ext, Timestamp: time.Now()})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "markdown report failed:", err)
			return 1
		}
		fmt.Printf("wrote markdown report to %s\n", *markdown)
	}

	if *extensions {
		fmt.Println(schedcomp.SpeedupQuantilesTable(ev))
		fmt.Println("running extension experiments...")
		for _, t := range ext {
			fmt.Println(t)
		}
	}
	return 0
}
