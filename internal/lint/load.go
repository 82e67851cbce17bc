package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages of the enclosing module from
// source, using only the standard library. Imports are resolved in
// order against SrcRoots (extra GOPATH-style source roots, used by the
// test harness for testdata packages), then the module itself, and
// finally the standard library via go/importer's source importer.
//
// Loading is deterministic: files are parsed in sorted name order and
// packages are returned in sorted path order. Files excluded by build
// constraints (and files named with a leading "_" or ".") are skipped,
// matching the go tool.
//
// By default every Loader shares one process-wide FileSet, standard
// library importer and module-package cache, so the expensive
// source-based type-check of the stdlib (and of module packages that
// many analyzers depend on) happens once per process rather than once
// per Loader. A cmd/schedlint run or a linttest suite constructs many
// loaders; all of them reuse the same checked packages. The shared
// cache assumes SrcRoots never shadow a real module package, which
// holds for all linttest testdata layouts. Loaders are not safe for
// concurrent use.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string
	SrcRoots   []string

	std      types.Importer
	cache    map[string]*Package
	isolated bool
}

// shared is the process-wide cache reused by every non-isolated
// Loader: one FileSet (so positions from shared packages stay valid in
// every loader), one source importer for the standard library, and the
// type-checked module packages keyed by module root + import path.
var shared = struct {
	mu   sync.Mutex
	fset *token.FileSet
	std  types.Importer
	mod  map[string]*Package
}{
	fset: token.NewFileSet(),
	mod:  map[string]*Package{},
}

func sharedStd() types.Importer {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if shared.std == nil {
		shared.std = importer.ForCompiler(shared.fset, "source", nil)
	}
	return shared.std
}

func sharedModGet(root, path string) (*Package, bool) {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	p, ok := shared.mod[root+"\x00"+path]
	return p, ok
}

func sharedModPut(root, path string, p *Package) {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	shared.mod[root+"\x00"+path] = p
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader returns a loader rooted at the module containing dir,
// sharing the process-wide stdlib and module-package caches.
func NewLoader(dir string) (*Loader, error) {
	l, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	l.Fset = shared.fset
	l.std = sharedStd()
	return l, nil
}

// NewIsolatedLoader returns a loader with a private FileSet, stdlib
// importer and cache, bypassing the shared caches entirely. It exists
// so tests and benchmarks can measure (or force) cold loads; regular
// callers want NewLoader.
func NewIsolatedLoader(dir string) (*Loader, error) {
	l, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	l.isolated = true
	l.Fset = token.NewFileSet()
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

func newLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		cache:      map[string]*Package{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer so the loader can resolve the
// imports of the packages it checks.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p.Types, nil
	}
	if dir := l.resolveDir(path); dir != "" {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Resolvable reports whether path is resolved from source by this
// loader (a module or SrcRoots package) rather than delegated to the
// standard library importer. Analyzers that need function bodies (the
// ssair program builder) use it to decide which imports to pull in.
func (l *Loader) Resolvable(path string) bool {
	return l.resolveDir(path) != ""
}

// resolveDir maps an import path to a source directory, or "" when the
// path belongs to the standard library.
func (l *Loader) resolveDir(path string) string {
	for _, root := range l.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
		if hasGoFiles(dir) {
			return dir
		}
	}
	return ""
}

// goFilesIn lists the compilable Go files of dir in sorted order:
// non-test .go files that are not excluded by build constraints and do
// not carry the go tool's "_"/"." ignore prefixes.
func goFilesIn(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries { // ReadDir sorts by name: deterministic
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		out = append(out, name)
	}
	return out
}

func hasGoFiles(dir string) bool {
	return len(goFilesIn(dir)) > 0
}

// LoadPath loads and type-checks a single package by import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir := l.resolveDir(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: cannot resolve package %q", path)
	}
	return l.load(path, dir)
}

// Loaded returns every package this loader has loaded from source so
// far — the requested ones and the module or SrcRoots packages they
// import — in sorted path order.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.cache))
	for _, p := range l.cache {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// fromModule reports whether dir lies under the module root rather
// than under a SrcRoots testdata tree; only such packages go through
// the shared cross-loader cache.
func (l *Loader) fromModule(dir string) bool {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	return err == nil && !strings.HasPrefix(rel, "..")
}

func (l *Loader) load(path, dir string) (*Package, error) {
	shareable := !l.isolated && l.fromModule(dir)
	if shareable {
		if p, ok := sharedModGet(l.ModuleRoot, path); ok {
			l.cache[path] = p
			return p, nil
		}
	}
	names := goFilesIn(dir)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, TypesInfo: info}
	l.cache[path] = p
	if shareable {
		sharedModPut(l.ModuleRoot, path, p)
	}
	return p, nil
}

// Load expands the given package patterns ("./...", "./internal/...",
// "./internal/pq", or fully qualified import paths) against the module
// and returns the matching packages, type-checked, in sorted path
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	all, err := l.modulePackages()
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(pat, "/")
		// Normalize to an import path (possibly with /... suffix).
		switch {
		case pat == "." || pat == "./...":
			pat = strings.Replace(pat, ".", l.ModulePath, 1)
		case strings.HasPrefix(pat, "./"):
			pat = l.ModulePath + pat[1:]
		}
		sub, matched := strings.CutSuffix(pat, "/...")
		n := 0
		for _, p := range all {
			if p == pat || (matched && (p == sub || strings.HasPrefix(p, sub+"/"))) {
				set[p] = true
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("lint: pattern %q matches no packages", pat)
		}
	}
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}

// modulePackages walks the module tree and returns the import paths of
// every package directory, skipping testdata, hidden directories and
// nested modules (a subdirectory with its own go.mod belongs to that
// module, as with the go tool's ./...).
func (l *Loader) modulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if path != l.ModuleRoot {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
			return nil
		}
		out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
