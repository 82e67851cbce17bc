// Command schedlint runs the project's custom static-analysis suite
// (internal/lint/...) over the module: determinism and execution-model
// invariants that ordinary vet checks cannot see. It is the static
// twin of the schedtest determinism harness and is wired into CI.
//
// Usage:
//
//	go run ./cmd/schedlint -json -perfbudget perf_budget.json ./...  # CI gate
//	go run ./cmd/schedlint ./...                       # whole module
//	go run ./cmd/schedlint ./internal/...              # subtree
//	go run ./cmd/schedlint -json ./...                 # NDJSON findings for CI/editors
//	go run ./cmd/schedlint -only=locksafe,ctxflow ./...# subset of the suite
//	go run ./cmd/schedlint -skip=hotalloc ./...        # everything but
//	go run ./cmd/schedlint -list                       # describe the analyzers
//
//	# perflint pack (hotescape, hotbce, noinline):
//	go run ./cmd/schedlint -only hotescape,hotbce,noinline -perfbudget perf_budget.json ./...
//	go run ./cmd/schedlint -only hotescape,hotbce,noinline -writeperfbudget perf_budget.json ./...
//	go run ./cmd/schedlint -only hotescape,hotbce,noinline -perfreport ./internal/heuristics/...
//
// In -json mode each finding is one JSON object per line with the
// fields file, line, col, analyzer and message; the default text mode
// is unchanged.
//
// Each finding is reported by the pass of the package that contains
// it, so a subset run such as ./internal/serve/ does not report a
// cross-package flow whose sink lies in a dependency; the CI gate runs
// over ./... and sees every one.
//
// In -perfbudget mode the committed budget (see perfbudget.go) is
// loaded and findings within their budgeted (package, analyzer,
// message) counts pass; only perflint findings are ever budgeted, so
// every other finding, and every perflint finding over budget, is
// printed and fails the run. -writeperfbudget regenerates the budget
// from the current tree; -perfreport prints every finding as a
// worklist ranked by loop depth, deepest first.
//
// Exit status: 0 clean (or within-budget only), 1 findings reported,
// 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as NDJSON records (file/line/col/analyzer/message)")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzer names to skip")
	perfBudgetPath := flag.String("perfbudget", "", "perf budget JSON file; only findings over the budgeted counts fail the run")
	writePerfBudget := flag.String("writeperfbudget", "", "write the current findings as a perf budget to this file and exit")
	perfReport := flag.Bool("perfreport", false, "print findings as a refactoring worklist ranked by loop depth and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: schedlint [-list] [-json] [-only names] [-skip names] [-perfbudget file] [-writeperfbudget file] [-perfreport] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite, err := selectAnalyzers(analyzers.All(), *only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range suite {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := runSuite(suite, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}

	if *writePerfBudget != "" {
		b, err := savePerfBudget(*writePerfBudget, findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedlint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "schedlint: wrote %d budget entr(y/ies) (%d finding(s), %s) to %s\n",
			len(b.Entries), len(findings), b.GcVersion, *writePerfBudget)
		return
	}
	if *perfReport {
		printPerfReport(findings)
		return
	}

	if *perfBudgetPath != "" {
		budget, err := loadPerfBudget(*perfBudgetPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedlint:", err)
			os.Exit(2)
		}
		if v := runtime.Version(); budget.GcVersion != "" && budget.GcVersion != v {
			fmt.Fprintf(os.Stderr, "schedlint: warning: perf budget written under %s, running %s; optimization decisions may differ\n",
				budget.GcVersion, v)
		}
		var within, improved int
		findings, within, improved = budget.diff(findings)
		if within > 0 {
			fmt.Fprintf(os.Stderr, "schedlint: %d finding(s) within the perf budget\n", within)
		}
		if improved > 0 {
			fmt.Fprintf(os.Stderr, "schedlint: %d budgeted finding(s) no longer present (consider -writeperfbudget to shrink the budget)\n", improved)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, "schedlint:", err)
				os.Exit(2)
			}
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s\n", f.File, f.Line, f.Col, f.Message)
		}
	}
	if len(findings) > 0 {
		what := "finding(s)"
		if *perfBudgetPath != "" {
			what = "finding(s) not covered by the perf budget"
		}
		fmt.Fprintf(os.Stderr, "schedlint: %d %s\n", len(findings), what)
		os.Exit(1)
	}
}

// selectAnalyzers applies -only and -skip to the suite, rejecting
// names that match no analyzer (a typo would otherwise silently pass).
func selectAnalyzers(all []*lint.Analyzer, only, skip string) ([]*lint.Analyzer, error) {
	names := func(csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		m := map[string]bool{}
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			found := false
			for _, a := range all {
				if a.Name == n {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", n)
			}
			m[n] = true
		}
		return m, nil
	}
	onlySet, err := names(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := names(skip)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("flag selection leaves no analyzers to run")
	}
	return out, nil
}

// finding is one diagnostic in a machine-consumable shape; the JSON
// field names are the -json output contract (consumed by CI artifacts
// and editors).
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Package is the import path of the analyzed package; Depth is the
	// loop nesting depth attributed by depth-ranking analyzers. Depth is
	// omitted when zero, for the analyzers that do not set it.
	Package string `json:"package,omitempty"`
	Depth   int    `json:"depth,omitempty"`
}

func runSuite(suite []*lint.Analyzer, patterns []string) ([]finding, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}

	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range suite {
			a := a
			pass := &lint.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Loader:    loader,
				Report: func(d lint.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					file := pos.Filename
					if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) {
						file = rel
					}
					findings = append(findings, finding{File: file, Line: pos.Line, Col: pos.Column, Analyzer: a.Name, Message: d.Message, Package: pkg.Path, Depth: d.Depth})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return findings, nil
}
