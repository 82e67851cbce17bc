package analyzers_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/obscard"
	"schedcomp/internal/lint/taintnondet"
)

// TestWholeProgramFindingsReportedOnce runs the two whole-program
// analyzers the way cmd/schedlint does: every package is loaded on one
// loader first, then each analyzer runs over each package in turn, so
// all passes share one SSA program. Each finding must come out exactly
// once, from the pass of the package that contains it, and together
// the passes must report exactly the lines that carry a want comment
// for that analyzer — including taintdemo/inter's sinks, whose taint
// comes from a map range in taintdemo/keys.
func TestWholeProgramFindingsReportedOnce(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"../taintnondet/testdata/src", "../obscard/testdata/src"} {
		src, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		loader.SrcRoots = append(loader.SrcRoots, src)
	}
	var pkgs []*lint.Package
	for _, path := range []string{
		"schedcomp/internal/obsdemo",
		"schedcomp/internal/taintdemo/clean",
		"schedcomp/internal/taintdemo/flagged",
		"schedcomp/internal/taintdemo/inter",
		"schedcomp/internal/taintdemo/keys",
		"schedcomp/internal/taintdemo/suppressed",
	} {
		pkg, err := loader.LoadPath(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	for _, a := range []*lint.Analyzer{taintnondet.Analyzer, obscard.Analyzer} {
		got := map[string]int{} // file:line: message -> times reported
		for _, pkg := range pkgs {
			pass := &lint.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Loader:    loader,
				Report: func(d lint.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					if filepath.Dir(pos.Filename) != pkg.Dir {
						t.Errorf("%s: pass for %s reported a finding in another package: %s:%d",
							a.Name, pkg.Path, pos.Filename, pos.Line)
					}
					got[fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)]++
				},
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
		lines := map[string]bool{}
		for key, n := range got {
			if n != 1 {
				t.Errorf("%s: reported %d times: %s", a.Name, n, key)
			}
			lines[key[:strings.Index(key, ": ")]] = true
		}
		want := wantLines(pkgs, a.Name)
		for l := range want {
			if !lines[l] {
				t.Errorf("%s: no finding at %s", a.Name, l)
			}
		}
		for l := range lines {
			if !want[l] {
				t.Errorf("%s: unexpected finding at %s", a.Name, l)
			}
		}
		if len(want) == 0 {
			t.Errorf("%s: the testdata carries no want comments", a.Name)
		}
	}
}

// wantLines returns the file:line of every want comment that expects
// a finding of the named analyzer.
func wantLines(pkgs []*lint.Package, analyzer string) map[string]bool {
	out := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, "want `"+analyzer+":") {
						pos := pkg.Fset.Position(c.Pos())
						out[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)] = true
					}
				}
			}
		}
	}
	return out
}
