// Package hotbce flags bounds checks the compiler could not eliminate
// inside scheduling hot loops. The -json=0 optimization log only
// records a bounds check when bounds-check elimination failed, so
// every isInBounds/isSliceInBounds diagnostic is a real per-access
// branch at run time; inside the inner loops of the heuristics those
// add up. Findings are ranked by the dominator-based loop depth of the
// indexing code (ssair.LoopInfo).
//
// A finding can be waived with //lint:boundedidx on the indexing line
// (or the enclosing function declaration) when the index is known
// bounded by construction but the proof is beyond the compiler.
package hotbce

import (
	"schedcomp/internal/lint"
	"schedcomp/internal/lint/optdiag"
	"schedcomp/internal/lint/ssair"
)

// Analyzer is the hotbce pass.
var Analyzer = &lint.Analyzer{
	Name: "hotbce",
	Doc: "flag bounds checks the compiler failed to eliminate inside loops of the " +
		"scheduling hot packages, ranked by loop depth; waive provably-bounded " +
		"indexing with //lint:boundedidx",
	Run: run,
}

func run(pass *lint.Pass) error {
	if pass.Loader == nil {
		return nil
	}
	if !optdiag.HotPath(pass.Pkg.Path()) {
		return nil
	}
	set, err := optdiag.For(pass)
	if err != nil {
		return err
	}
	prog, err := ssair.For(pass)
	if err != nil {
		return err
	}
	pkg, err := pass.Loader.LoadPath(pass.Pkg.Path())
	if err != nil {
		return err
	}
	idx := ssair.NewPosIndex(prog, pkg)
	files := optdiag.PkgFiles(pass)
	for _, d := range optdiag.Dedup(set.All()) {
		var kind string
		switch d.Code {
		case "isInBounds":
			kind = "bounds check"
		case "isSliceInBounds":
			kind = "slice bounds check"
		default:
			continue
		}
		if !files[d.File] {
			continue
		}
		depth, fn, ok := idx.Depth(d.File, d.Line, d.Col)
		if !ok || depth < 1 {
			continue
		}
		pos := optdiag.PosIn(pass, d.File, d.Line, d.Col)
		if !pos.IsValid() {
			continue
		}
		if pass.Annotated(pos, "boundedidx") || fn.Waived(pass, "boundedidx") {
			continue
		}
		pass.ReportDepthf(pos, depth,
			"%s not eliminated in a depth-%d scheduling loop; hoist a len check or "+
				"restructure the index (//lint:boundedidx to waive)",
			kind, depth)
	}
	return nil
}
