package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// perfBudget is the committed multiset of accepted perflint findings
// (perf_budget.json): how many findings of each (package, analyzer,
// message) the tree is allowed to have. The gate is one-directional —
// a finding over its budgeted count (or with no entry at all) is a
// regression and fails the run; a budgeted finding that disappeared is
// an improvement and is merely noted, so fixes land without touching
// the budget and the file only changes when someone deliberately
// accepts new debt (-writeperfbudget).
//
// Messages embed the loop depth ("depth-2"), so a finding migrating
// deeper into a nest is a regression even when its count is unchanged.
type perfBudget struct {
	// GcVersion is the toolchain the budget was written under. Inline
	// and escape decisions shift between compiler releases, so a
	// mismatch is reported (but does not fail: the findings themselves
	// decide).
	GcVersion string        `json:"gc_version"`
	Entries   []budgetEntry `json:"entries"`
}

type budgetEntry struct {
	Package  string `json:"package"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

func budgetKey(f finding) string {
	return f.Package + "\x00" + f.Analyzer + "\x00" + f.Message
}

// budgetFromFindings aggregates findings into a budget for the running
// toolchain, in deterministic order. Only perflint findings (the ones
// attributed to a loop depth) are budgeted; any other finding always
// fails the gate.
func budgetFromFindings(findings []finding) *perfBudget {
	counts := map[string]*budgetEntry{}
	for _, f := range findings {
		if f.Depth == 0 {
			continue
		}
		k := budgetKey(f)
		if e, ok := counts[k]; ok {
			e.Count++
			continue
		}
		counts[k] = &budgetEntry{Package: f.Package, Analyzer: f.Analyzer, Message: f.Message, Count: 1}
	}
	b := &perfBudget{GcVersion: runtime.Version()}
	for _, e := range counts {
		b.Entries = append(b.Entries, *e)
	}
	sort.Slice(b.Entries, func(i, j int) bool {
		a, c := b.Entries[i], b.Entries[j]
		if a.Package != c.Package {
			return a.Package < c.Package
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
	return b
}

func savePerfBudget(path string, findings []finding) (*perfBudget, error) {
	b := budgetFromFindings(findings)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return b, os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadPerfBudget(path string) (*perfBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b perfBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("perf budget %s: %v", path, err)
	}
	for i, e := range b.Entries {
		if e.Analyzer == "" || e.Count < 1 {
			return nil, fmt.Errorf("perf budget %s: entry %d is malformed: %+v", path, i, e)
		}
	}
	return &b, nil
}

// diff splits findings against the budget: regressions (over budget or
// unbudgeted), the number within budget, and the number of budgeted
// findings no longer present (improvements).
func (b *perfBudget) diff(findings []finding) (regressions []finding, within, improved int) {
	remaining := map[string]int{}
	for _, e := range b.Entries {
		remaining[e.Package+"\x00"+e.Analyzer+"\x00"+e.Message] += e.Count
	}
	for _, f := range findings {
		k := budgetKey(f)
		if remaining[k] > 0 {
			remaining[k]--
			within++
			continue
		}
		regressions = append(regressions, f)
	}
	for _, n := range remaining {
		improved += n
	}
	return regressions, within, improved
}

// printPerfReport renders findings as a refactoring worklist, hottest
// (deepest loop) first.
func printPerfReport(findings []finding) {
	sorted := append([]finding(nil), findings...)
	sort.Slice(sorted, func(i, j int) bool {
		a, c := sorted[i], sorted[j]
		if a.Depth != c.Depth {
			return a.Depth > c.Depth
		}
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Line != c.Line {
			return a.Line < c.Line
		}
		return a.Message < c.Message
	})
	byPkg := map[string]int{}
	for _, f := range sorted {
		fmt.Printf("depth=%d %s:%d:%d: %s\n", f.Depth, f.File, f.Line, f.Col, f.Message)
		byPkg[f.Package]++
	}
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	fmt.Fprintf(os.Stderr, "schedlint: %d finding(s) across %d package(s)\n", len(sorted), len(pkgs))
	for _, p := range pkgs {
		fmt.Fprintf(os.Stderr, "  %4d  %s\n", byPkg[p], p)
	}
}
