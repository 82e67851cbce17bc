// Package ssair converts the type-checked packages produced by the
// lint loader into a compact SSA-form IR and runs whole-module
// dataflow analyses over it. Like the rest of internal/lint it is
// deliberately dependency-free: the x/tools SSA packages are not used,
// so the linter builds from a clean checkout with nothing but the
// standard library.
//
// The IR is "compact" in the sense that it models exactly what the
// schedlint dataflow passes need and no more:
//
//   - Functions are lowered to basic blocks of Values in SSA form.
//     Local variables become value versions with phi nodes at joins
//     (constructed with the on-the-fly algorithm of Braun et al.,
//     sealing loop headers once their back edges are known).
//   - Memory is modeled coarsely: a store through an index, field or
//     dereference creates a new version of the *root* local variable
//     (OpStore), and every call conservatively creates a new version
//     of each reference-typed argument (OpMutate), so that callee
//     side effects are visible at the call site via callee summaries.
//   - Control dependence is captured where it matters for taint: the
//     phi nodes created at a join carry the branch conditions of the
//     statement that produced the join in Value.Ctrl, so a value
//     merged under a nondeterministic condition is itself
//     nondeterministic (implicit flows).
//   - Every value records the syntactic loop depth at which it
//     executes, which is what the hotalloc analyzer consumes.
//
// A Program is built once per lint.Loader, over every package the
// loader has loaded, and is immutable afterwards: a schedlint run loads
// all its patterns first, so every analyzer pass shares one SSA
// construction and each whole-program analysis runs once. A loader that
// loads more packages later gets a new Program; the old one is unchanged.
package ssair

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"schedcomp/internal/lint"
)

// Op identifies the operation computed by a Value.
type Op uint8

const (
	OpUnknown    Op = iota
	OpParam         // function parameter (receiver first for methods)
	OpFreeVar       // free-variable read inside a closure; Args are the writes in the defining function
	OpConst         // literal, nil, named constant, or func reference
	OpGlobal        // read of a package-level variable (Var)
	OpPhi           // SSA phi; Args align with Block.Preds, Ctrl carries join conditions
	OpCall          // function or method call; static Callee or Args[0]=callee value when dynamic
	OpExtract       // extract result AuxInt of the multi-result call Args[0]
	OpBinOp         // binary expression; Aux is the operator
	OpUnOp          // unary expression (incl. len/cap and friends); Aux is the operator
	OpConvert       // type conversion
	OpIndex         // read x[i]
	OpField         // read x.f (also bound-method values)
	OpSliceExpr     // x[lo:hi:max]
	OpDeref         // *p
	OpAddr          // &x
	OpRangeKey      // per-iteration range key; Aux is the range kind ("map", "slice", ...)
	OpRangeVal      // per-iteration range value; Aux as OpRangeKey
	OpRecv          // <-ch; Aux=="select" ("select-default" when the select has a default) with AuxInt=#cases when inside a select
	OpSelect        // the nondeterministic choice made by a select; AuxInt=#cases, Aux=="default" when a default clause exists
	OpMakeMap       // make(map...) or a map literal (Aux "make"/"lit")
	OpMakeSlice     // make([]T,...) or a slice/array literal; AuxInt=1 when a size was given
	OpMakeChan      // make(chan ...)
	OpAppend        // append(dest, elems...); Aux renders the dest expression
	OpComposite     // struct composite literal or new(T)
	OpClosure       // func literal; Closure is the nested Func
	OpStore         // new version of a root variable after a composite store: Args[0]=old, Args[1]=stored; Aux=="copy" for builtin copy
	OpMutate        // new version of a root variable after a call that may mutate it: Args[0]=old, Call/ArgIndex identify the call
	OpTypeAssert    // x.(T)
	OpSend          // ch <- v: Args[0]=chan, Args[1]=value; Aux as OpRecv when inside a select
	OpPanic         // call to builtin panic; Args are the operands
)

var opNames = [...]string{
	OpUnknown: "Unknown", OpParam: "Param", OpFreeVar: "FreeVar", OpConst: "Const",
	OpGlobal: "Global", OpPhi: "Phi", OpCall: "Call", OpExtract: "Extract",
	OpBinOp: "BinOp", OpUnOp: "UnOp", OpConvert: "Convert", OpIndex: "Index",
	OpField: "Field", OpSliceExpr: "SliceExpr", OpDeref: "Deref", OpAddr: "Addr",
	OpRangeKey: "RangeKey", OpRangeVal: "RangeVal", OpRecv: "Recv", OpSelect: "Select",
	OpMakeMap: "MakeMap", OpMakeSlice: "MakeSlice", OpMakeChan: "MakeChan",
	OpAppend: "Append", OpComposite: "Composite", OpClosure: "Closure",
	OpStore: "Store", OpMutate: "Mutate", OpTypeAssert: "TypeAssert",
	OpSend: "Send", OpPanic: "Panic",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Value is one SSA instruction.
type Value struct {
	ID        int // program-unique, dense; taint state is indexed by it
	Op        Op
	Fn        *Func
	Block     *Block
	Args      []*Value
	Ctrl      []*Value // control-dependence inputs (phis at joins)
	Type      types.Type
	Pos       token.Pos
	Callee    *types.Func // static callee for OpCall
	Closure   *Func       // nested function for OpClosure
	Call      *Value      // the call an OpMutate belongs to
	ArgIndex  int         // callee parameter index of an OpMutate (-1 when unknown)
	Var       *types.Var  // variable identity for OpParam/OpFreeVar/OpGlobal/OpStore/OpMutate
	Aux       string
	AuxInt    int64
	LoopDepth int
}

func (v *Value) String() string {
	return fmt.Sprintf("v%d:%s", v.ID, v.Op)
}

// Block is one basic block.
type Block struct {
	Index     int
	Preds     []*Block
	Values    []*Value
	LoopDepth int

	sealed          bool
	phis            []*Value
	incomplete      map[*types.Var]*Value
	incompleteOrder []*types.Var // deterministic sealing order
	defs            map[*types.Var]*Value
	ctrlConds       []*Value
}

// Func is one function, method, or function literal with a body.
type Func struct {
	Obj     *types.Func // nil for function literals
	Name    string      // qualified, for diagnostics
	Pkg     *lint.Package
	Sig     *types.Signature
	Params  []*Value // receiver first for methods
	Blocks  []*Block
	Values  []*Value   // creation order; phis included
	Returns [][]*Value // result values of each return statement
	Parent  *Func      // enclosing function for literals
	Approx  bool       // built with conservative fallbacks (e.g. goto)

	decl   ast.Node // *ast.FuncDecl or *ast.FuncLit
	writes map[*types.Var][]*Value
	frees  []*Value  // OpFreeVar values awaiting patching
	loops  *LoopInfo // cached dominator/natural-loop analysis
}

// DeclPos returns the position of the func declaration (or literal),
// where a function-level suppression comment would sit.
func (f *Func) DeclPos() token.Pos {
	if f.decl == nil {
		return token.NoPos
	}
	return f.decl.Pos()
}

// Waived reports whether f or an enclosing function carries the
// //lint:<directive> waiver on its declaration.
func (f *Func) Waived(pass *lint.Pass, directive string) bool {
	for fn := f; fn != nil; fn = fn.Parent {
		if pos := fn.DeclPos(); pos.IsValid() && pass.Annotated(pos, directive) {
			return true
		}
	}
	return false
}

// HasFreeVars reports whether f captures variables from an enclosing
// function. A func literal with no captures compiles to a static
// function value and allocates nothing.
func (f *Func) HasFreeVars() bool { return len(f.frees) > 0 }

// Program is the SSA form of every package a lint.Loader has loaded.
// It is built once and never grown afterwards; a loader that loads
// more packages gets a new Program from the next For call.
type Program struct {
	Loader *lint.Loader
	Funcs  map[*types.Func]*Func
	All    []*Func // deterministic construction order, closures after parent
	Pkgs   map[string]*lint.Package

	globalWrites map[*types.Var][]*Value
	nextID       int
	taint        *TaintResult
}

// programs caches the current Program of each Loader so that every
// analyzer pass in a schedlint run shares one SSA construction.
var programs sync.Map // *lint.Loader -> *Program

// For returns the Program over every package the pass's loader has
// loaded, building it on first use. The cached Program is reused until
// the loader has loaded packages it lacks; then a new one is built and
// the old one is left as it was.
func For(pass *lint.Pass) (*Program, error) {
	if pass.Loader == nil {
		return nil, fmt.Errorf("ssair: pass has no loader; whole-program analyzers need one")
	}
	loaded := pass.Loader.Loaded()
	// The loader's cache only grows, so equal sizes mean equal sets.
	if v, ok := programs.Load(pass.Loader); ok && len(v.(*Program).Pkgs) == len(loaded) {
		return v.(*Program), nil
	}
	p := &Program{
		Loader:       pass.Loader,
		Funcs:        map[*types.Func]*Func{},
		Pkgs:         map[string]*lint.Package{},
		globalWrites: map[*types.Var][]*Value{},
	}
	byPath := make(map[string]*lint.Package, len(loaded))
	for _, pkg := range loaded {
		byPath[pkg.Path] = pkg
	}
	for _, pkg := range loaded {
		p.addPackage(pkg, byPath)
	}
	programs.Store(pass.Loader, p)
	return p, nil
}

// addPackage builds pkg after every loaded package it transitively
// imports (the standard library is never loaded: no bodies needed),
// visiting imports in sorted order so value IDs are deterministic.
// Already-built packages are skipped.
func (p *Program) addPackage(pkg *lint.Package, loaded map[string]*lint.Package) {
	if p.Pkgs[pkg.Path] != nil {
		return
	}
	p.Pkgs[pkg.Path] = pkg
	var imports []string
	for _, imp := range pkg.Types.Imports() {
		imports = append(imports, imp.Path())
	}
	sort.Strings(imports)
	for _, imp := range imports {
		if dep := loaded[imp]; dep != nil {
			p.addPackage(dep, loaded)
		}
	}
	p.buildPackage(pkg)
}

// buildPackage lowers every declared function of pkg. Files arrive
// from the loader in sorted name order and declarations are processed
// in source order, so value IDs are deterministic.
func (p *Program) buildPackage(pkg *lint.Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			p.buildFunc(pkg, obj, fd)
		}
	}
}

// FuncsOf returns the functions (including closures) declared in pkg,
// in construction order.
func (p *Program) FuncsOf(pkg *types.Package) []*Func {
	var out []*Func
	for _, fn := range p.All {
		if fn.Pkg != nil && fn.Pkg.Types == pkg {
			out = append(out, fn)
		}
	}
	return out
}

// FileFor returns the syntax tree of fn's package containing pos.
func (p *Program) FileFor(fn *Func, pos token.Pos) *ast.File {
	if fn == nil || fn.Pkg == nil {
		return nil
	}
	return lint.FileIn(fn.Pkg, pos)
}

// Fset returns the program's file set.
func (p *Program) Fset() *token.FileSet { return p.Loader.Fset }

// MethodOn reports whether f is the method name on type
// pkgPath.typeName (pointer or value receiver). Exported for the
// analyzers built on top of the IR.
func MethodOn(f *types.Func, pkgPath, typeName, name string) bool {
	return methodOn(f, pkgPath, typeName, name)
}

// PkgFunc reports whether f is one of the named package-level
// functions of pkgPath.
func PkgFunc(f *types.Func, pkgPath string, names ...string) bool {
	return pkgFunc(f, pkgPath, names...)
}
