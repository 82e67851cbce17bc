// Package report assembles the complete reproduction output — corpus
// summary, Tables 2–11, Figures 1–6 and (optionally) the extension
// experiments — into a single markdown document, so a full run can be
// archived or diffed against the paper with one command
// (cmd/schedbench -markdown).
package report

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"schedcomp/internal/core"
	"schedcomp/internal/corpus"
	"schedcomp/internal/experiments"
	"schedcomp/internal/stats"
)

// Options controls report contents.
type Options struct {
	// Title heads the document.
	Title string
	// Extensions, when non-empty, adds these extension experiment
	// tables (see experiments.Extensions) after the figures.
	Extensions []*stats.Table
	// Timestamp, when non-zero, is recorded in the header.
	Timestamp time.Time
}

// Write renders the full report for an evaluated corpus and returns
// the first error writing to out.
func Write(out io.Writer, c *corpus.Corpus, ev *core.Evaluation, opts Options) error {
	w := bufio.NewWriter(out)
	title := opts.Title
	if title == "" {
		title = "Multiprocessor scheduling heuristics: reproduction report"
	}
	fmt.Fprintf(w, "# %s\n\n", title)
	if !opts.Timestamp.IsZero() {
		fmt.Fprintf(w, "Generated %s.\n\n", opts.Timestamp.Format(time.RFC3339))
	}
	fmt.Fprintf(w, "Corpus: %d graphs in %d classes (seed %d, %d–%d nodes, %d per class).\n\n",
		c.NumGraphs(), len(c.Sets), c.Spec.Seed, c.Spec.MinNodes, c.Spec.MaxNodes, c.Spec.GraphsPerSet)
	fmt.Fprintf(w, "Heuristics: %s.\n\n", strings.Join(ev.Heuristics, ", "))

	fmt.Fprintf(w, "## Tables 2–11\n\n")
	for _, t := range experiments.AllTables(ev) {
		writeTable(w, t)
	}

	fmt.Fprintf(w, "## Figures 1–6\n\n")
	for _, f := range experiments.AllFigures(ev) {
		fmt.Fprintf(w, "```\n%s```\n\n", f)
	}

	if len(opts.Extensions) > 0 {
		fmt.Fprintf(w, "## Extension experiments\n\n")
		for _, t := range opts.Extensions {
			writeTable(w, t)
		}
	}
	return w.Flush()
}

// writeTable renders a stats.Table as a markdown table with its title
// as a sub-heading.
func writeTable(w io.Writer, t *stats.Table) {
	if t.Title != "" {
		fmt.Fprintf(w, "### %s\n\n", t.Title)
	}
	row := func(cells []string, width int) {
		fmt.Fprint(w, "|")
		for i := 0; i < width; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(w, " %s |", strings.ReplaceAll(c, "|", "\\|"))
		}
		fmt.Fprintln(w)
	}
	width := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > width {
			width = len(r)
		}
	}
	row(t.Columns, width)
	fmt.Fprint(w, "|")
	for i := 0; i < width; i++ {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		row(r, width)
	}
	fmt.Fprintln(w)
}
