package ssair_test

import (
	"path/filepath"
	"strings"
	"testing"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/ssair"
)

// loadProgram builds a fresh Program over the ssairtest testdata
// package using its own loader (so the per-loader cache starts cold).
func loadProgram(t *testing.T) *ssair.Program {
	t.Helper()
	return programFor(t, testLoader(t), "ssairtest")
}

// testLoader returns a new loader that resolves the testdata packages.
func testLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader.SrcRoots = []string{src}
	return loader
}

// programFor loads path on loader and returns ssair.For of a pass over
// it.
func programFor(t *testing.T, loader *lint.Loader, path string) *ssair.Program {
	t.Helper()
	pkg, err := loader.LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	pass := &lint.Pass{
		Analyzer:  &lint.Analyzer{Name: "ssairtest"},
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Loader:    loader,
		Report:    func(lint.Diagnostic) {},
	}
	prog, err := ssair.For(pass)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestForBuildsOnceAndNeverGrows pins the Program lifecycle: For
// returns one Program while the loader's package set is unchanged, and
// a new one once the loader has loaded more, leaving the old Program
// exactly as it was.
func TestForBuildsOnceAndNeverGrows(t *testing.T) {
	loader := testLoader(t)
	first := programFor(t, loader, "ssairtest")
	if again := programFor(t, loader, "ssairtest"); again != first {
		t.Fatal("two For calls on an unchanged loader built two programs")
	}
	if first.Taint() != first.Taint() {
		t.Error("Taint recomputed on an unchanged program")
	}
	nPkgs, nFuncs, nFuncMap := len(first.Pkgs), len(first.All), len(first.Funcs)

	grown := programFor(t, loader, "ssairloop")
	if grown == first {
		t.Fatal("For returned the old program after the loader loaded a new package")
	}
	if grown.Pkgs["ssairtest"] == nil || grown.Pkgs["ssairloop"] == nil {
		t.Errorf("new program lacks a loaded package: %v", grown.Pkgs)
	}
	if first.Pkgs["ssairloop"] != nil || len(first.Pkgs) != nPkgs ||
		len(first.All) != nFuncs || len(first.Funcs) != nFuncMap {
		t.Error("the old program changed after the loader grew")
	}
	if again := programFor(t, loader, "ssairtest"); again != grown {
		t.Error("For rebuilt the program although the loader did not grow")
	}
}

func findFunc(t *testing.T, prog *ssair.Program, name string) *ssair.Func {
	t.Helper()
	for _, fn := range prog.All {
		if fn.Name == name || strings.HasSuffix(fn.Name, "."+name) {
			return fn
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestLoopPhiAndDepth(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "Sum")
	var phiAt1, addAt1 bool
	for _, v := range fn.Values {
		if v.Op == ssair.OpPhi && v.LoopDepth == 1 {
			phiAt1 = true
		}
		if v.Op == ssair.OpBinOp && v.Aux == "+=" && v.LoopDepth == 1 {
			addAt1 = true
		}
	}
	if !phiAt1 {
		t.Error("expected a loop-header phi at depth 1 for the accumulator")
	}
	if !addAt1 {
		t.Error("expected the += to be recorded at loop depth 1")
	}
}

func TestMergePhiCarriesCondition(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "Pick")
	found := false
	for _, v := range fn.Values {
		if v.Op != ssair.OpPhi || len(v.Ctrl) == 0 {
			continue
		}
		for _, c := range v.Ctrl {
			if c.Op == ssair.OpParam {
				found = true
			}
		}
	}
	if !found {
		t.Error("merge phi should carry the branch condition (the bool param) as control dependence")
	}
}

func TestClosureCapturePatched(t *testing.T) {
	prog := loadProgram(t)
	var closure *ssair.Func
	for _, fn := range prog.All {
		if fn.Parent != nil && strings.Contains(fn.Parent.Name, "Counter") {
			closure = fn
		}
	}
	if closure == nil {
		t.Fatal("closure of Counter not built")
	}
	if !closure.HasFreeVars() {
		t.Fatal("closure should capture n")
	}
	patched := false
	for _, v := range closure.Values {
		if v.Op == ssair.OpFreeVar && len(v.Args) > 0 {
			patched = true
		}
	}
	if !patched {
		t.Error("free-variable read should be patched to the defining function's writes")
	}
}

func TestNestedLoopDepth(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "Nested")
	deepAppend := false
	for _, v := range fn.Values {
		if v.Op == ssair.OpAppend && v.LoopDepth == 2 {
			deepAppend = true
		}
	}
	if !deepAppend {
		t.Error("inner append should sit at loop depth 2")
	}
}

func TestSelectControlEdges(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "Shuttle")
	var choice *ssair.Value
	var send, recv bool
	for _, v := range fn.Values {
		switch v.Op {
		case ssair.OpSelect:
			choice = v
		case ssair.OpSend:
			if v.Aux == "select" && v.AuxInt == 2 {
				send = true
			}
		case ssair.OpRecv:
			if v.Aux == "select" && v.AuxInt == 2 {
				recv = true
			}
		}
	}
	if choice == nil || choice.AuxInt != 2 || choice.Aux == "default" {
		t.Fatalf("blocking select should yield an OpSelect with 2 cases and no default mark, got %v", choice)
	}
	if !send || !recv {
		t.Errorf("select comm ops should be marked \"select\" with the case count (send=%v recv=%v)", send, recv)
	}
	// The merged t must be control-dependent on the select choice.
	depends := false
	for _, v := range fn.Values {
		if v.Op != ssair.OpPhi {
			continue
		}
		for _, c := range v.Ctrl {
			if c == choice {
				depends = true
			}
		}
	}
	if !depends {
		t.Error("the phi merging the select arms should carry the OpSelect choice in Ctrl")
	}
}

func TestSelectDefaultMarking(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "TryPut")
	var choiceDefault, sendDefault bool
	for _, v := range fn.Values {
		switch v.Op {
		case ssair.OpSelect:
			choiceDefault = v.Aux == "default"
		case ssair.OpSend:
			sendDefault = v.Aux == "select-default"
		}
	}
	if !choiceDefault {
		t.Error("select with a default clause should mark the OpSelect Aux \"default\"")
	}
	if !sendDefault {
		t.Error("a send in a select with default should be marked \"select-default\" (non-blocking)")
	}
}

func TestDeferAndGoCallMarking(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "Cleanup")
	var deferred, spawned bool
	for _, v := range fn.Values {
		if v.Op != ssair.OpCall {
			continue
		}
		switch v.Aux {
		case "defer":
			deferred = true
		case "go":
			spawned = true
		}
	}
	if !deferred {
		t.Error("deferred call should carry Aux \"defer\"")
	}
	if !spawned {
		t.Error("go-statement call should carry Aux \"go\"")
	}
}

func TestPanicLowering(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "Explode")
	found := false
	for _, v := range fn.Values {
		if v.Op == ssair.OpPanic && len(v.Args) == 1 {
			found = true
		}
	}
	if !found {
		t.Error("builtin panic should lower to OpPanic carrying its operand")
	}
}

func TestNoApproxFallbacks(t *testing.T) {
	prog := loadProgram(t)
	for _, fn := range prog.All {
		if fn.Approx {
			t.Errorf("%s built approximately; every statement form in ssairtest should be modeled", fn.Name)
		}
	}
}

func TestSourcesAndSuppression(t *testing.T) {
	prog := loadProgram(t)
	res := prog.Taint()
	var open, suppressed bool
	for _, s := range res.Sources {
		if s.Kind != ssair.KindMapIter {
			continue
		}
		name := s.Fn.Name
		switch {
		case strings.Contains(name, "KeysOf"):
			if !s.Suppressed {
				open = true
			}
		case strings.Contains(name, "SizeOf"):
			if s.Suppressed {
				suppressed = true
			}
		}
	}
	if !open {
		t.Error("KeysOf map range should be an active map-iteration source")
	}
	if !suppressed {
		t.Error("SizeOf map range should be suppressed by //lint:sorted")
	}
	// No scheduling sinks exist in this package, so no flows either.
	if len(res.Flows) != 0 {
		t.Errorf("expected no flows, got %d", len(res.Flows))
	}
}

// TestDeterministicRebuild builds the same package through two
// independent loaders and requires identical SSA shapes — the property
// every schedlint analyzer output depends on.
func TestDeterministicRebuild(t *testing.T) {
	a, b := loadProgram(t), loadProgram(t)
	if len(a.All) != len(b.All) {
		t.Fatalf("function count differs: %d vs %d", len(a.All), len(b.All))
	}
	for i := range a.All {
		fa, fb := a.All[i], b.All[i]
		if fa.Name != fb.Name || len(fa.Values) != len(fb.Values) || len(fa.Blocks) != len(fb.Blocks) {
			t.Fatalf("function %d differs: %s/%d/%d vs %s/%d/%d",
				i, fa.Name, len(fa.Values), len(fa.Blocks), fb.Name, len(fb.Values), len(fb.Blocks))
		}
		for j := range fa.Values {
			va, vb := fa.Values[j], fb.Values[j]
			if va.Op != vb.Op || va.LoopDepth != vb.LoopDepth || len(va.Args) != len(vb.Args) {
				t.Fatalf("%s value %d differs: %v vs %v", fa.Name, j, va, vb)
			}
		}
	}
}
