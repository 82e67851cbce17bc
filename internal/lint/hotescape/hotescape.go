// Package hotescape flags heap escapes inside scheduling hot loops.
// Unlike hotalloc, which pattern-matches allocation syntax, hotescape
// consumes the compiler's own escape-analysis verdicts (the -json=0
// optimization log, via optdiag): anything the compiler actually
// decided to heap-allocate — including escapes hotalloc cannot see,
// such as interface conversions, variables captured by reference, or
// arguments leaking through calls — is reported when it sits inside a
// loop of a hot package, ranked by the dominator-based loop depth of
// the surrounding code (ssair.LoopInfo).
//
// A finding can be waived with //lint:coldescape on the escaping line
// or on the enclosing function declaration when the allocation is
// genuinely cold or intentional.
package hotescape

import (
	"schedcomp/internal/lint"
	"schedcomp/internal/lint/optdiag"
	"schedcomp/internal/lint/ssair"
)

// Analyzer is the hotescape pass.
var Analyzer = &lint.Analyzer{
	Name: "hotescape",
	Doc: "flag compiler-verified heap escapes inside loops of the scheduling hot " +
		"packages, ranked by loop depth (escape analysis log joined to the CFG); " +
		"waive intentional escapes with //lint:coldescape",
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
		if d.Code != "escape" && d.Code != "escapes" {
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
		if pass.Annotated(pos, "coldescape") || fn.Waived(pass, "coldescape") {
			continue
		}
		msg := d.Message
		if msg == "" {
			msg = "value escapes to heap"
		}
		pass.ReportDepthf(pos, depth,
			"heap escape in a depth-%d scheduling loop: %s (hoist it out, or //lint:coldescape)",
			depth, msg)
	}
	return nil
}
