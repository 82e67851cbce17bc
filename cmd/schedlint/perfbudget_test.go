package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func perfFindings() []finding {
	return []finding{
		{File: "internal/heuristics/ez/ez.go", Line: 10, Col: 3, Analyzer: "hotescape",
			Message: "hotescape: m1", Package: "schedcomp/internal/heuristics/ez", Depth: 2},
		{File: "internal/heuristics/ez/ez.go", Line: 40, Col: 3, Analyzer: "hotescape",
			Message: "hotescape: m1", Package: "schedcomp/internal/heuristics/ez", Depth: 2},
		{File: "internal/dag/dag.go", Line: 5, Col: 1, Analyzer: "hotbce",
			Message: "hotbce: m2", Package: "schedcomp/internal/dag", Depth: 1},
	}
}

func TestBudgetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf_budget.json")
	saved, err := savePerfBudget(path, perfFindings())
	if err != nil {
		t.Fatal(err)
	}
	if saved.GcVersion != runtime.Version() {
		t.Errorf("saved GcVersion = %q, want %q", saved.GcVersion, runtime.Version())
	}
	b, err := loadPerfBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 2 {
		t.Fatalf("entries = %+v, want 2 aggregated keys", b.Entries)
	}
	// Deterministic order: dag before heuristics/ez.
	if b.Entries[0].Package != "schedcomp/internal/dag" || b.Entries[0].Count != 1 {
		t.Errorf("entry 0 = %+v", b.Entries[0])
	}
	if b.Entries[1].Count != 2 {
		t.Errorf("duplicate hotescape findings should aggregate to count 2, got %+v", b.Entries[1])
	}
	regressions, within, improved := b.diff(perfFindings())
	if len(regressions) != 0 || within != 3 || improved != 0 {
		t.Errorf("tree at budget: regressions=%v within=%d improved=%d", regressions, within, improved)
	}
}

// TestBudgetNeverAcceptsNonPerfFindings pins the gate's contract: a
// finding without a loop depth (anything outside the perflint pack)
// is never written into the budget, so it fails even a budget
// regenerated from a tree that has it.
func TestBudgetNeverAcceptsNonPerfFindings(t *testing.T) {
	mapiter := finding{File: "internal/gen/gen.go", Line: 7, Col: 2, Analyzer: "mapiter",
		Message: "mapiter: range over map", Package: "schedcomp/internal/gen"}
	b := budgetFromFindings(append(perfFindings(), mapiter))
	if len(b.Entries) != 2 {
		t.Fatalf("entries = %+v, want only the 2 perflint keys", b.Entries)
	}
	regressions, within, _ := b.diff(append(perfFindings(), mapiter))
	if len(regressions) != 1 || regressions[0] != mapiter || within != 3 {
		t.Errorf("regressions=%v within=%d, want only the mapiter finding over budget", regressions, within)
	}
}

func TestBudgetDiffRegressionAndImprovement(t *testing.T) {
	b := budgetFromFindings(perfFindings())
	// One extra hotescape occurrence (over count), one brand-new key,
	// and the hotbce finding fixed.
	now := []finding{
		perfFindings()[0], perfFindings()[1],
		{File: "internal/heuristics/ez/ez.go", Line: 77, Col: 3, Analyzer: "hotescape",
			Message: "hotescape: m1", Package: "schedcomp/internal/heuristics/ez", Depth: 2},
		{File: "internal/pq/pq.go", Line: 9, Col: 2, Analyzer: "noinline",
			Message: "noinline: m3", Package: "schedcomp/internal/pq", Depth: 2},
	}
	regressions, within, improved := b.diff(now)
	if within != 2 {
		t.Errorf("within = %d, want 2", within)
	}
	if improved != 1 {
		t.Errorf("improved = %d, want 1 (the fixed hotbce finding)", improved)
	}
	if len(regressions) != 2 {
		t.Fatalf("regressions = %+v, want 2", regressions)
	}
	if regressions[0].Line != 77 {
		t.Errorf("regressions[0] = %+v, want the over-count hotescape occurrence", regressions[0])
	}
	if regressions[1].Analyzer != "noinline" {
		t.Errorf("regressions[1] = %+v, want the new noinline key", regressions[1])
	}
}

func TestBudgetDepthChangeIsRegression(t *testing.T) {
	base := []finding{{File: "f.go", Line: 1, Analyzer: "hotbce",
		Message: "hotbce: bounds check not eliminated in a depth-1 scheduling loop", Package: "p", Depth: 1}}
	b := budgetFromFindings(base)
	moved := []finding{{File: "f.go", Line: 1, Analyzer: "hotbce",
		Message: "hotbce: bounds check not eliminated in a depth-2 scheduling loop", Package: "p", Depth: 2}}
	regressions, _, improved := b.diff(moved)
	if len(regressions) != 1 || improved != 1 {
		t.Errorf("finding migrating deeper must regress: regressions=%v improved=%d", regressions, improved)
	}
}

func TestLoadPerfBudgetErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := loadPerfBudget(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing budget file should be an error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := loadPerfBudget(bad); err == nil {
		t.Error("malformed budget JSON should be an error")
	}
	zero := filepath.Join(dir, "zero.json")
	os.WriteFile(zero, []byte(`{"gc_version":"go1.24.0","entries":[{"package":"p","analyzer":"","message":"m","count":1}]}`), 0o644)
	if _, err := loadPerfBudget(zero); err == nil {
		t.Error("entry without analyzer should be an error")
	}
}
