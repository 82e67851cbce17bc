package ssair_test

import (
	"strings"
	"testing"

	"schedcomp/internal/lint/ssair"
)

// depthsOf collects the LoopInfo depth of every value of fn matching
// the given op and Aux ("" matches any Aux).
func depthsOf(fn *ssair.Func, op ssair.Op, aux string) []int {
	li := fn.LoopInfo()
	var out []int
	for _, v := range fn.Values {
		if v.Op == op && (aux == "" || v.Aux == aux) {
			out = append(out, li.DepthOf(v))
		}
	}
	return out
}

func contains(ds []int, want int) bool {
	for _, d := range ds {
		if d == want {
			return true
		}
	}
	return false
}

func TestNestedLoopDepths(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "NestedLoops")
	li := fn.LoopInfo()
	if li.Conservative() {
		t.Fatal("NestedLoops should not need the conservative fallback")
	}
	// row += xs[i][j] runs at depth 2, total += row*3 at depth 1.
	adds := depthsOf(fn, ssair.OpBinOp, "+=")
	if !contains(adds, 2) {
		t.Errorf("inner += depths %v: want one at depth 2", adds)
	}
	mults := depthsOf(fn, ssair.OpBinOp, "*")
	if !contains(mults, 1) || contains(mults, 2) {
		t.Errorf("outer-body * depths %v: want depth 1, no depth 2", mults)
	}
}

func TestMultiBackedgeSingleLoop(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "MultiBackedge")
	li := fn.LoopInfo()
	var headers []*ssair.Block
	for _, b := range fn.Blocks {
		if li.IsHeader(b) {
			headers = append(headers, b)
		}
	}
	if len(headers) != 1 {
		t.Fatalf("got %d loop headers, want 1 (continue + body end merge into one natural loop)", len(headers))
	}
	// Both the continue edge and the body-end edge are back edges into
	// the same header: at least two predecessors the header dominates.
	back := 0
	for _, p := range headers[0].Preds {
		if li.Dominates(headers[0], p) {
			back++
		}
	}
	if back < 2 {
		t.Errorf("header has %d back edges, want >= 2", back)
	}
	for _, d := range depthsOf(fn, ssair.OpBinOp, "+=") {
		if d != 1 {
			t.Errorf("body += at depth %d, want 1", d)
		}
	}
	for _, d := range depthsOf(fn, ssair.OpBinOp, "-=") {
		if d != 1 {
			t.Errorf("continue-branch -= at depth %d, want 1", d)
		}
	}
}

func TestRangeLoopDepths(t *testing.T) {
	prog := loadProgram(t)
	fn := findFunc(t, prog, "RangeMap")
	if ds := depthsOf(fn, ssair.OpRangeKey, "map"); !contains(ds, 1) {
		t.Errorf("map range key depths %v: want 1", ds)
	}
	if ds := depthsOf(fn, ssair.OpBinOp, "+="); !contains(ds, 1) || contains(ds, 0) {
		t.Errorf("map range body += depths %v: want all 1", ds)
	}
	fn = findFunc(t, prog, "RangeSliceNested")
	if ds := depthsOf(fn, ssair.OpBinOp, "+="); !contains(ds, 2) {
		t.Errorf("nested slice range += depths %v: want one at 2", ds)
	}
}

// loadLoopProgram builds a Program over the ssairloop testdata package
// (goto shapes kept out of ssairtest, which asserts no Approx).
func loadLoopProgram(t *testing.T) *ssair.Program {
	t.Helper()
	return programFor(t, testLoader(t), "ssairloop")
}

func TestGotoLoopConservativeFallback(t *testing.T) {
	fn := findFunc(t, loadLoopProgram(t), "GotoLoop")
	if !fn.Approx {
		t.Fatal("goto should mark the function Approx")
	}
	li := fn.LoopInfo()
	if !li.Conservative() {
		t.Fatal("Approx function must use depth-conservative labeling")
	}
	for _, v := range fn.Values {
		if d := li.DepthOf(v); d < 1 {
			t.Errorf("%v labeled depth %d in an Approx function, want >= 1", v, d)
		}
	}
}

func TestStraightLineHasNoLoops(t *testing.T) {
	fn := findFunc(t, loadProgram(t), "StraightLine")
	li := fn.LoopInfo()
	if li.Conservative() || li.Irreducible() {
		t.Fatal("straight-line function must be neither conservative nor irreducible")
	}
	for _, v := range fn.Values {
		if d := li.DepthOf(v); d != 0 {
			t.Errorf("%v at depth %d, want 0", v, d)
		}
	}
}

// TestPosIndexClosureDepthInheritance pins the closure-depth offset of
// the position index: a comparator passed to a call inside a loop
// inherits that loop's depth for its body, while one only used outside
// loops stays at 0.
func TestPosIndexClosureDepthInheritance(t *testing.T) {
	prog := loadProgram(t)
	fn := findFunc(t, prog, "ClosureUsedInLoop")
	idx := ssair.NewPosIndex(prog, fn.Pkg)
	depthAtBinOp := func(aux string) int {
		t.Helper()
		for _, f := range prog.All {
			if f.Parent != fn {
				continue
			}
			for _, v := range f.Values {
				if v.Op == ssair.OpBinOp && v.Aux == aux && v.Pos.IsValid() {
					pos := fn.Pkg.Fset.Position(v.Pos)
					d, _, ok := idx.Depth(pos.Filename, pos.Line, pos.Column)
					if !ok {
						t.Fatalf("no index entry at %v", pos)
					}
					return d
				}
			}
		}
		t.Fatalf("no closure BinOp %q under ClosureUsedInLoop", aux)
		return -1
	}
	if d := depthAtBinOp("<"); d != 1 {
		t.Errorf("hotLess body depth = %d, want 1 (used in the loop)", d)
	}
	if d := depthAtBinOp(">"); d != 0 {
		t.Errorf("coldLess body depth = %d, want 0 (only used outside loops)", d)
	}
}

// TestDominatorDepthNeverExceedsSyntacticDepth cross-checks the two
// loop depth computations over every precisely-built function of the
// testdata package. The dominator-based depth can legitimately fall
// below the syntactic one — a block that only exits the loop (break,
// return) is not part of the natural loop body and is correctly ranked
// colder — but it must never exceed it, and the builder must never
// produce an irreducible CFG.
func TestDominatorDepthNeverExceedsSyntacticDepth(t *testing.T) {
	prog := loadProgram(t)
	for _, fn := range prog.All {
		if fn.Pkg == nil || !strings.Contains(fn.Name, "ssairtest") || fn.Approx {
			continue
		}
		li := fn.LoopInfo()
		if li.Irreducible() {
			t.Errorf("%s: builder produced an irreducible CFG", fn.Name)
			continue
		}
		for _, b := range fn.Blocks {
			if len(b.Preds) == 0 && b.Index != 0 {
				continue // unreachable: falls back to syntactic by definition
			}
			if got := li.Depth(b); got > b.LoopDepth {
				t.Errorf("%s block %d: dominator depth %d exceeds syntactic %d", fn.Name, b.Index, got, b.LoopDepth)
			}
		}
	}
}

// mkCFG builds a raw CFG from an edge list for direct ComputeLoopInfo
// tests of shapes the builder cannot produce.
func mkCFG(n int, edges [][2]int) []*ssair.Block {
	blocks := make([]*ssair.Block, n)
	for i := range blocks {
		blocks[i] = &ssair.Block{Index: i}
	}
	for _, e := range edges {
		blocks[e[1]].Preds = append(blocks[e[1]].Preds, blocks[e[0]])
	}
	return blocks
}

func TestComputeLoopInfoManualNested(t *testing.T) {
	// 0 -> 1 (outer header) -> 2 (inner header) -> 3 -> 2 (back),
	// 2 -> 4 -> 1 (back), 1 -> 5 (exit).
	blocks := mkCFG(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 2}, {2, 4}, {4, 1}, {1, 5}})
	li := ssair.ComputeLoopInfo(blocks, false)
	if li.Irreducible() {
		t.Fatal("nested reducible CFG misclassified as irreducible")
	}
	want := []int{0, 1, 2, 2, 1, 0}
	for i, w := range want {
		if got := li.Depth(blocks[i]); got != w {
			t.Errorf("block %d: depth %d, want %d", i, got, w)
		}
	}
	if !li.IsHeader(blocks[1]) || !li.IsHeader(blocks[2]) {
		t.Error("blocks 1 and 2 must be loop headers")
	}
	if !li.Dominates(blocks[1], blocks[4]) || li.Dominates(blocks[3], blocks[4]) {
		t.Error("dominator relation wrong: 1 dom 4 expected, 3 dom 4 not")
	}
}

func TestComputeLoopInfoSelfLoop(t *testing.T) {
	blocks := mkCFG(3, [][2]int{{0, 1}, {1, 1}, {1, 2}})
	li := ssair.ComputeLoopInfo(blocks, false)
	if got := li.Depth(blocks[1]); got != 1 {
		t.Errorf("self-loop block depth %d, want 1", got)
	}
	if got := li.Depth(blocks[2]); got != 0 {
		t.Errorf("exit block depth %d, want 0", got)
	}
}

func TestComputeLoopInfoIrreducible(t *testing.T) {
	// Classic two-entry region: 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 1.
	// Neither 1 nor 2 dominates the other, so the cycle has no natural
	// header; the analysis must flag irreducibility and label depths
	// conservatively (>= 1 everywhere).
	blocks := mkCFG(3, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}})
	li := ssair.ComputeLoopInfo(blocks, false)
	if !li.Irreducible() {
		t.Fatal("two-entry cycle not detected as irreducible")
	}
	if !li.Conservative() {
		t.Fatal("irreducible CFG must be labeled conservatively")
	}
	for i := 0; i < 3; i++ {
		if got := li.Depth(blocks[i]); got < 1 {
			t.Errorf("block %d: depth %d, want >= 1 under conservative labeling", i, got)
		}
	}
}

func TestComputeLoopInfoUnreachableFallsBackToSyntactic(t *testing.T) {
	blocks := mkCFG(3, [][2]int{{0, 1}})
	blocks[2].LoopDepth = 2 // unreachable block keeps its syntactic depth
	li := ssair.ComputeLoopInfo(blocks, false)
	if got := li.Depth(blocks[2]); got != 2 {
		t.Errorf("unreachable block depth %d, want syntactic 2", got)
	}
	if got := li.Depth(blocks[1]); got != 0 {
		t.Errorf("reachable straight-line block depth %d, want 0", got)
	}
}
