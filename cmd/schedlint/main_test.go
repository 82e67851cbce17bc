package main

import (
	"testing"

	"schedcomp/internal/lint/analyzers"
)

func TestSelectAnalyzers(t *testing.T) {
	all := analyzers.All()
	only, err := selectAnalyzers(all, "locksafe,ctxflow", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 2 {
		t.Fatalf("-only selected %d analyzers, want 2", len(only))
	}
	skip, err := selectAnalyzers(all, "", "locksafe")
	if err != nil {
		t.Fatal(err)
	}
	if len(skip) != len(all)-1 {
		t.Fatalf("-skip left %d analyzers, want %d", len(skip), len(all)-1)
	}
	if _, err := selectAnalyzers(all, "nosuch", ""); err == nil {
		t.Fatal("unknown -only name should be an error")
	}
	if _, err := selectAnalyzers(all, "locksafe", "locksafe"); err == nil {
		t.Fatal("selection that leaves nothing should be an error")
	}
}
