// Package hotalloc flags avoidable per-iteration allocations inside
// the scheduling hot paths (internal/heuristics, internal/sched,
// internal/pq, internal/dag, internal/core, internal/gen — schedtest
// is excluded). It consumes the loop-depth annotations of the ssair
// SSA form:
//
//   - maps, channels and empty slice literals allocated inside a loop
//     (hoist them, or preallocate with a size hint);
//   - capturing closures created inside a loop (each one allocates;
//     non-capturing literals are free and ignored);
//   - appends in *nested* loops whose destination provably starts
//     life as nil or an unsized literal (the depth-1 case is amortized
//     O(1) and allowed; in a nested loop the growth reallocations
//     repeat every outer iteration).
//
// A finding can be waived with //lint:coldpath on the allocation line
// or on the enclosing function declaration when the code is genuinely
// cold (setup, diagnostics).
package hotalloc

import (
	"strings"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/ssair"
)

// Scope lists the package-path fragments this analyzer polices.
var Scope = []string{"internal/heuristics", "internal/sched", "internal/pq", "internal/dag", "internal/core", "internal/gen"}

// Analyzer is the hotalloc pass.
var Analyzer = &lint.Analyzer{
	Name: "hotalloc",
	Doc: "flag per-iteration allocations in scheduling hot loops (maps, channels, " +
		"capturing closures, and nested-loop appends without preallocated capacity); " +
		"suppress intentionally cold code with //lint:coldpath",
	Run: run,
}

func run(pass *lint.Pass) error {
	if pass.Loader == nil {
		return nil
	}
	path := pass.Pkg.Path()
	if !lint.PathHasAny(path, Scope...) || strings.Contains(path, "schedtest") {
		return nil
	}
	prog, err := ssair.For(pass)
	if err != nil {
		return err
	}
	for _, fn := range prog.FuncsOf(pass.Pkg) {
		if fn.Waived(pass, "coldpath") {
			continue
		}
		for _, v := range fn.Values {
			if v.LoopDepth < 1 || !v.Pos.IsValid() {
				continue
			}
			kind, msg := classify(v)
			if kind == "" {
				continue
			}
			if pass.Annotated(v.Pos, "coldpath") {
				continue
			}
			pass.Reportf(v.Pos, "%s", msg)
		}
	}
	return nil
}

func classify(v *ssair.Value) (kind, msg string) {
	switch v.Op {
	case ssair.OpMakeMap:
		return "map", "map allocated inside a scheduling loop; hoist it out and reuse (or //lint:coldpath)"
	case ssair.OpMakeChan:
		return "chan", "channel allocated inside a scheduling loop; hoist it out of the loop"
	case ssair.OpMakeSlice:
		if v.Aux == "lit" && v.AuxInt == 0 {
			return "slice", "empty slice literal allocated inside a scheduling loop; use a nil slice or preallocate with make"
		}
	case ssair.OpClosure:
		if v.Closure != nil && v.Closure.HasFreeVars() {
			return "closure", "capturing closure allocated inside a scheduling loop; hoist the function value or pass state explicitly"
		}
	case ssair.OpAppend:
		if v.LoopDepth >= 2 && growsUnsized(v) {
			return "append", "append to " + v.Aux + " inside a nested scheduling loop grows a slice with no preallocated capacity; make it with a capacity hint"
		}
	}
	return "", ""
}

// growsUnsized traces the append destination back through phis,
// earlier appends and store/mutate versions; it reports true when some
// path reaches a nil/zero slice or an unsized empty literal. Unknown
// origins (parameters, call results, fields) are assumed preallocated.
func growsUnsized(app *ssair.Value) bool {
	if len(app.Args) == 0 {
		return false
	}
	seen := map[*ssair.Value]bool{}
	var bad func(v *ssair.Value) bool
	bad = func(v *ssair.Value) bool {
		if v == nil || seen[v] {
			return false
		}
		seen[v] = true
		switch v.Op {
		case ssair.OpConst:
			return true // nil or zero-value slice
		case ssair.OpMakeSlice:
			return v.AuxInt == 0 // []T{} — no size, no capacity
		case ssair.OpPhi, ssair.OpFreeVar:
			for _, a := range v.Args {
				if bad(a) {
					return true
				}
			}
			return false
		case ssair.OpAppend, ssair.OpStore, ssair.OpMutate, ssair.OpExtract:
			if len(v.Args) > 0 {
				return bad(v.Args[0])
			}
			return false
		case ssair.OpConvert, ssair.OpSliceExpr:
			if len(v.Args) > 0 {
				return bad(v.Args[0])
			}
			return false
		}
		return false
	}
	return bad(app.Args[0])
}
