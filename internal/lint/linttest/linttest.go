// Package linttest runs lint analyzers over testdata packages and
// checks the reported diagnostics against // want "regexp" comments,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Testdata layout (identical to analysistest):
//
//	<analyzer>/testdata/src/<import/path/of/pkg>/*.go
//
// Testdata packages may import real module packages (for example
// schedcomp/internal/pq) and the standard library; the loader resolves
// testdata first, then the module, then std.
//
// An expectation is a trailing comment on the offending line:
//
//	for k := range m { // want `mapiter: range over map`
//
// Lines without a want comment must produce no diagnostic, and every
// want comment must be matched, or the test fails.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"schedcomp/internal/lint"
)

var (
	wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
	argRe  = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads each testdata package and applies the analyzer, failing t
// on any mismatch between reported diagnostics and want comments.
// testdata is the path of the analyzer's testdata directory (usually
// simply "testdata"); pkgPaths are the import paths of the packages
// under testdata/src to analyze.
func Run(t *testing.T, testdata string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	if len(pkgPaths) == 0 {
		t.Fatal("linttest.Run: no packages given")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	src, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader.SrcRoots = []string{src}
	// Load every package before the first pass, as cmd/schedlint does,
	// so whole-program analyzers see one program for the whole run.
	pkgs := make([]*lint.Package, len(pkgPaths))
	for i, path := range pkgPaths {
		if pkgs[i], err = loader.LoadPath(path); err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
	}
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(strings.ReplaceAll(pkg.Path, "/", "_"), func(t *testing.T) {
			runOne(t, loader, a, pkg)
		})
	}
}

func runOne(t *testing.T, loader *lint.Loader, a *lint.Analyzer, pkg *lint.Package) {
	t.Helper()
	expects, err := parseExpectations(loader, pkg)
	if err != nil {
		t.Fatal(err)
	}
	var diags []lint.Diagnostic
	pass := &lint.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d lint.Diagnostic) { diags = append(diags, d) },
		Loader:    loader,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !consume(expects, filepath.Base(pos.Filename), pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

func consume(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

func parseExpectations(loader *lint.Loader, pkg *lint.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := argRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, arg := range args {
					raw := arg[1]
					if arg[1] == "" && arg[2] != "" {
						unq, err := strconv.Unquote(`"` + arg[2] + `"`)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
						}
						raw = unq
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{file: filepath.Base(pos.Filename), line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}
