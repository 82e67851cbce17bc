package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"schedcomp/internal/lint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestFindModuleRoot(t *testing.T) {
	root := moduleRoot(t)
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %q has no go.mod: %v", root, err)
	}
}

func TestLoaderLoadsRealPackage(t *testing.T) {
	l, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadPath("schedcomp/internal/dag")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "dag" {
		t.Fatalf("package name = %q, want dag", pkg.Types.Name())
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files loaded")
	}
	if pkg.Types.Scope().Lookup("Graph") == nil {
		t.Fatal("type Graph not found in schedcomp/internal/dag")
	}
	// Loading again must hit the cache and return the identical package.
	again, err := l.LoadPath("schedcomp/internal/dag")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("second LoadPath returned a different *Package; cache miss")
	}
}

// writeModule materializes a throwaway module under t.TempDir for
// loader edge-case tests. files maps module-relative paths to content.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoaderSkipsBuildTagExcludedFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"pkg/a.go": "package pkg\n\nfunc A() int { return 1 }\n",
		// Without build-constraint filtering this file would redeclare A
		// and fail the type check.
		"pkg/b.go": "//go:build ignore\n\npackage pkg\n\nfunc A() int { return 2 }\n",
		// The go tool also ignores files with a leading underscore.
		"pkg/_c.go": "package pkg\n\nfunc A() int { return 3 }\n",
	})
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadPath("tmpmod/pkg")
	if err != nil {
		t.Fatalf("load with excluded files: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (build-tag and underscore files skipped)", len(pkg.Files))
	}
}

func TestLoaderTestOnlyPackageIsNotAPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"pkg/a.go":          "package pkg\n\nfunc A() int { return 1 }\n",
		"only/only_test.go": "package only\n\nimport \"testing\"\n\nfunc TestNothing(t *testing.T) {}\n",
	})
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPath("tmpmod/only"); err == nil {
		t.Fatal("LoadPath on a _test.go-only directory succeeded, want error")
	}
	if _, err := l.Load("./only"); err == nil {
		t.Fatal("Load pattern over a _test.go-only directory succeeded, want error")
	}
	// The package walk must not surface the test-only directory either.
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.Path == "tmpmod/only" {
			t.Fatal("./... expansion included the test-only package")
		}
	}
}

func TestLoaderReportsSyntaxErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"pkg/a.go":    "package pkg\n\nfunc A() int { return 1 }\n",
		"broken/b.go": "package broken\n\nfunc B( {\n",
	})
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPath("tmpmod/broken"); err == nil {
		t.Fatal("LoadPath on a syntactically broken package succeeded, want error")
	}
	// A broken sibling must not poison loading of healthy packages.
	if _, err := l.LoadPath("tmpmod/pkg"); err != nil {
		t.Fatalf("healthy package failed to load after broken one: %v", err)
	}
}

func TestLoaderReportsTypeErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"pkg/a.go": "package pkg\n\nfunc A() int { return \"not an int\" }\n",
	})
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPath("tmpmod/pkg"); err == nil {
		t.Fatal("LoadPath on a type-broken package succeeded, want error")
	}
}

func TestSharedModuleCacheAcrossLoaders(t *testing.T) {
	root := moduleRoot(t)
	a, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := a.LoadPath("schedcomp/internal/pq")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.LoadPath("schedcomp/internal/pq")
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatal("two loaders re-checked the same module package; shared cache miss")
	}
	if a.Fset != b.Fset {
		t.Fatal("shared loaders must share a FileSet or cached positions go stale")
	}
}

// The pair below is the satellite benchmark: a fresh Loader per
// iteration, loading a package whose imports pull in a slice of the
// standard library. The shared variant hits the process-wide stdlib
// and module caches after the first iteration; the isolated variant
// re-type-checks the stdlib from source every time. Run with
// `go test -bench Loader ./internal/lint` to see the gap (orders of
// magnitude on this module).
func BenchmarkFreshLoaderSharedCache(b *testing.B) {
	root := benchRoot(b)
	// Warm the shared cache so every measured iteration is the steady
	// state a multichecker or test suite sees.
	warm, err := lint.NewLoader(root)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.LoadPath("schedcomp/internal/dag"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := lint.NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.LoadPath("schedcomp/internal/dag"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFreshLoaderIsolated(b *testing.B) {
	root := benchRoot(b)
	for i := 0; i < b.N; i++ {
		l, err := lint.NewIsolatedLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.LoadPath("schedcomp/internal/dag"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRoot(b *testing.B) string {
	b.Helper()
	wd, err := os.Getwd()
	if err != nil {
		b.Fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		b.Fatal(err)
	}
	return root
}

func TestLoaderSkipsNestedModules(t *testing.T) {
	root := writeModule(t, map[string]string{
		"pkg/a.go":        "package pkg\n\nfunc A() int { return 1 }\n",
		"nested/go.mod":   "module tmpmod/nested\n\ngo 1.22\n",
		"nested/b.go":     "package nested\n\nfunc B() int { return 2 }\n",
		"nested/sub/c.go": "package sub\n\nfunc C() int { return 3 }\n",
	})
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tmpmod/pkg" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Fatalf("./... expanded to %v, want only tmpmod/pkg (nested module skipped)", got)
	}
}

func TestLoaderPatternExpansion(t *testing.T) {
	l, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/heuristics/...")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{
		"schedcomp/internal/heuristics",
		"schedcomp/internal/heuristics/mh",
		"schedcomp/internal/heuristics/schedtest",
	} {
		if !seen[want] {
			t.Errorf("pattern ./internal/heuristics/... missed %s (got %d packages)", want, len(pkgs))
		}
	}
	// Deterministic order: paths must come back sorted.
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].Path > pkgs[i].Path {
			t.Fatalf("packages out of order: %s before %s", pkgs[i-1].Path, pkgs[i].Path)
		}
	}
}
