package report

import (
	"strings"
	"testing"
	"time"

	"schedcomp/internal/core"
	"schedcomp/internal/corpus"
	"schedcomp/internal/experiments"

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
)

func TestWriteBasicReport(t *testing.T) {
	c, err := corpus.Generate(corpus.Spec{Seed: 8, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.Evaluate(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = Write(&b, c, ev, Options{Timestamp: time.Unix(0, 0).UTC()})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Multiprocessor scheduling heuristics",
		"## Tables 2–11",
		"Table 2", "Table 11",
		"## Figures 1–6",
		"Figure 1", "Figure 6",
		"| CLANS |",
		"|---|",
		"Corpus: 60 graphs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Extension") {
		t.Error("extensions included without being requested")
	}
}

func TestWriteWithExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension report in -short mode")
	}
	c, err := corpus.Generate(corpus.Spec{Seed: 9, GraphsPerSet: 1, MinNodes: 24, MaxNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.Evaluate(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := experiments.Extensions(3)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = Write(&b, c, ev, Options{Title: "T", Extensions: ext})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# T",
		"## Extension experiments",
		"optimal parallel time",
		"duplication",
		"Pearson",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("extension report missing %q", want)
		}
	}
}
