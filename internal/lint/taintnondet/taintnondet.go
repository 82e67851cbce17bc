// Package taintnondet is the interprocedural twin of mapiter: it
// tracks values derived from nondeterminism sources (map and
// sync.Map iteration order, channel receive ordering, select arm
// choice, wall-clock time, unseeded math/rand) through the SSA form of
// the whole module (internal/lint/ssair) and reports when one reaches
// a scheduling decision: a sched.Placement assignment, store, or
// literal, or an item pushed into a pq.Heap (whose Less ordering it
// would then control).
//
// Unlike the syntactic mapiter pass, flows survive function calls in
// both directions: a helper that returns map keys taints its callers,
// and a helper that assigns its argument into a Placement is a sink
// for its callers. Sorting (sort.* / slices.Sort*) re-determinizes
// ordering sources and clears their taint; //lint:sorted on the source
// line suppresses the source entirely.
package taintnondet

import (
	"fmt"
	"go/token"
	"path/filepath"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/ssair"
)

// Analyzer is the taintnondet pass.
var Analyzer = &lint.Analyzer{
	Name: "taintnondet",
	Doc: "track nondeterminism sources (map/sync.Map iteration, chan receive order, " +
		"select choice, time.Now, unseeded math/rand) through interprocedural SSA " +
		"dataflow and flag flows into scheduling sinks (sched.Placement, pq.Heap); " +
		"sort.*/slices.Sort* sanitize ordering taint, //lint:sorted suppresses a source",
	Run: run,
}

func run(pass *lint.Pass) error {
	if pass.Loader == nil {
		// Whole-program analysis needs the loader; a hand-constructed
		// pass gets the intraprocedural analyzers only.
		return nil
	}
	prog, err := ssair.For(pass)
	if err != nil {
		return err
	}
	res := prog.Taint()
	fset := prog.Fset()
	type report struct {
		pos token.Pos
		msg string
	}
	seen := map[report]bool{}
	for _, fl := range res.Flows {
		// Every pass shares one whole-program result; each flow is
		// reported by the pass of the package that holds its sink.
		if fl.Sink.Fn.Pkg.Types != pass.Pkg {
			continue
		}
		sp := fset.Position(fl.Source.Pos)
		r := report{fl.Sink.Pos, fmt.Sprintf(
			"%s receives a value tainted by %s (%s:%d); sort, seed, or annotate the source with //lint:sorted",
			fl.Sink.Desc, fl.Source.Desc, filepath.Base(sp.Filename), sp.Line)}
		// Two tainted arguments of one call are two sinks with one
		// position and message: report them once.
		if seen[r] {
			continue
		}
		seen[r] = true
		pass.Reportf(r.pos, "%s", r.msg)
	}
	return nil
}
