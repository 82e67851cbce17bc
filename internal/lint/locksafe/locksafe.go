// Package locksafe checks lock sections interprocedurally: code
// holding a sync.Mutex or sync.RWMutex must not reach a channel
// operation, a blocking admission path, or a second acquisition of the
// same lock — the exact hazard the serve pipeline's Close-vs-send
// protocol hand-verifies today. A non-blocking send (a select with a
// default clause) is fine under a read lock; a blocking one deadlocks
// against Close the moment the queue fills.
//
// The pass runs a forward may-held dataflow over each function's ssair
// CFG, naming locks by their receiver chain (p.mu, g.mu, reg.mu).
// Callee behavior is summarized over the whole program: a function
// that performs channel operations, waits on a WaitGroup/Cond, sleeps,
// or acquires a lock — transitively through static calls — counts as
// may-block at its call sites. Deferred and go-statement calls do not
// block at the point they appear and are excluded from the in-function
// events (they still contribute to the callee summary, since a defer
// runs before the callee returns).
//
// A second family of findings covers panic safety: a lock acquired
// without a deferred unlock, held across a call that may panic (any
// path to a builtin panic inside the module), stays locked while the
// panic unwinds. Release with defer or prove the section total.
//
// Intentional violations — the batch submit path deliberately blocks
// under the read lock, bounded by the request context — are waived
// with //lint:lockheld on the offending line or function declaration.
package locksafe

import (
	"go/types"
	"sort"
	"strings"
	"sync"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/ssair"
)

// Analyzer is the locksafe pass.
var Analyzer = &lint.Analyzer{
	Name: "locksafe",
	Doc: "a held sync.Mutex/RWMutex must not reach a channel operation, a " +
		"blocking call, or a re-lock of the same lock; locks held across " +
		"may-panic calls must be released with defer",
	Run: run,
}

const directive = "lockheld"

func run(pass *lint.Pass) error {
	if pass.Loader == nil {
		return nil
	}
	prog, err := ssair.For(pass)
	if err != nil {
		return err
	}
	sums := summarize(prog)
	for _, fn := range prog.FuncsOf(pass.Pkg) {
		checkFunc(pass, prog, sums, fn)
	}
	return nil
}

// ---- lock-call classification ----

// lockKind classifies a call as an acquisition or release of a sync
// lock; "" for anything else.
func lockKind(f *types.Func) string {
	for _, tn := range []string{"Mutex", "RWMutex"} {
		for _, m := range []string{"Lock", "RLock"} {
			if ssair.MethodOn(f, "sync", tn, m) {
				return "lock"
			}
		}
		for _, m := range []string{"Unlock", "RUnlock"} {
			if ssair.MethodOn(f, "sync", tn, m) {
				return "unlock"
			}
		}
	}
	return ""
}

// blockingStdlib reports whether f is a standard-library call that can
// block indefinitely (lock methods are handled separately).
func blockingStdlib(f *types.Func) bool {
	return ssair.MethodOn(f, "sync", "WaitGroup", "Wait") ||
		ssair.MethodOn(f, "sync", "Cond", "Wait") ||
		ssair.PkgFunc(f, "time", "Sleep")
}

// ident renders the lock identity of the receiver value chain (p.mu,
// g.mu, reg.mu); "?" when the chain cannot be named.
func ident(v *ssair.Value) string {
	switch v.Op {
	case ssair.OpParam, ssair.OpFreeVar, ssair.OpGlobal, ssair.OpStore, ssair.OpMutate:
		if v.Var != nil {
			return v.Var.Name()
		}
	case ssair.OpField:
		if base := ident(v.Args[0]); base != "?" {
			return base + "." + v.Aux
		}
	case ssair.OpDeref, ssair.OpAddr:
		return ident(v.Args[0])
	}
	return "?"
}

// ---- whole-program may-block / may-panic summaries ----

type summaries struct {
	blocks map[*ssair.Func]bool
	panics map[*ssair.Func]bool
}

var memo sync.Map // *ssair.Program -> *summaries

// callTarget resolves the module-internal body a call runs, if any:
// the static callee's Func, or a directly-invoked closure.
func callTarget(prog *ssair.Program, v *ssair.Value) *ssair.Func {
	if v.Callee != nil {
		return prog.Funcs[v.Callee]
	}
	if len(v.Args) > 0 && v.Args[0].Op == ssair.OpClosure {
		return v.Args[0].Closure
	}
	return nil
}

// summarize computes, per function, whether calling it may block and
// whether it may panic, to a fixpoint over the static call graph.
// Results are memoized per program.
func summarize(prog *ssair.Program) *summaries {
	if v, ok := memo.Load(prog); ok {
		return v.(*summaries)
	}
	s := &summaries{
		blocks: map[*ssair.Func]bool{},
		panics: map[*ssair.Func]bool{},
	}
	for _, fn := range prog.All {
		for _, v := range fn.Values {
			switch v.Op {
			case ssair.OpPanic:
				s.panics[fn] = true
			case ssair.OpSend, ssair.OpRecv:
				if v.Aux != "select-default" && v.Aux != "select" {
					s.blocks[fn] = true
				}
			case ssair.OpSelect:
				if v.Aux != "default" {
					s.blocks[fn] = true
				}
			case ssair.OpRangeKey:
				if v.Aux == "chan" {
					s.blocks[fn] = true
				}
			case ssair.OpCall:
				if v.Aux == "go" {
					continue // runs on another goroutine
				}
				if v.Callee != nil && (blockingStdlib(v.Callee) || lockKind(v.Callee) == "lock") {
					s.blocks[fn] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.All {
			for _, v := range fn.Values {
				if v.Op != ssair.OpCall || v.Aux == "go" {
					continue
				}
				t := callTarget(prog, v)
				if t == nil {
					continue
				}
				if s.blocks[t] && !s.blocks[fn] {
					s.blocks[fn], changed = true, true
				}
				if s.panics[t] && !s.panics[fn] {
					s.panics[fn], changed = true, true
				}
			}
		}
	}
	memo.Store(prog, s)
	return s
}

// ---- per-function held-lock dataflow ----

type state map[string]bool

func (st state) clone() state {
	n := make(state, len(st))
	for k := range st {
		n[k] = true
	}
	return n
}

func (st state) names() string {
	var ks []string
	for k := range st {
		if k == "?" {
			k = "a lock"
		}
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ", ")
}

// step applies one value's effect on the held set.
func step(st state, v *ssair.Value) {
	if v.Op != ssair.OpCall || v.Callee == nil || v.Aux == "defer" || v.Aux == "go" {
		return
	}
	switch lockKind(v.Callee) {
	case "lock":
		st[recvIdent(v)] = true
	case "unlock":
		if id := recvIdent(v); id == "?" {
			clear(st)
		} else {
			delete(st, id)
		}
	}
}

func recvIdent(v *ssair.Value) string {
	if len(v.Args) == 0 {
		return "?"
	}
	return ident(v.Args[0])
}

func checkFunc(pass *lint.Pass, prog *ssair.Program, sums *summaries, fn *ssair.Func) {
	if fn.Approx {
		return
	}
	hasLocks := false
	deferUnlocked := map[string]bool{}
	for _, v := range fn.Values {
		if v.Op != ssair.OpCall || v.Callee == nil {
			continue
		}
		switch lockKind(v.Callee) {
		case "lock":
			hasLocks = true
		case "unlock":
			if v.Aux == "defer" {
				deferUnlocked[recvIdent(v)] = true
			}
		}
	}
	if !hasLocks {
		return
	}

	// Forward may-held fixpoint: a lock is held at a point if it is
	// held on any path reaching it.
	in := make([]state, len(fn.Blocks))
	out := make([]state, len(fn.Blocks))
	for i := range fn.Blocks {
		in[i], out[i] = state{}, state{}
	}
	for round, changed := 0, true; changed && round < 100; round++ {
		changed = false
		for i, blk := range fn.Blocks {
			st := state{}
			for _, pred := range blk.Preds {
				for k := range out[pred.Index] {
					st[k] = true
				}
			}
			in[i] = st.clone()
			for _, v := range blk.Values {
				step(st, v)
			}
			if len(st) != len(out[i]) {
				out[i], changed = st, true
				continue
			}
			for k := range st {
				if !out[i][k] {
					out[i], changed = st, true
					break
				}
			}
		}
	}

	waived := func(v *ssair.Value) bool {
		return lint.AnnotatedIn(prog.Fset(), prog.FileFor(fn, v.Pos), v.Pos, directive) ||
			lint.AnnotatedIn(prog.Fset(), prog.FileFor(fn, fn.DeclPos()), fn.DeclPos(), directive)
	}

	panicReported := map[string]bool{}
	for i, blk := range fn.Blocks {
		st := in[i].clone()
		for _, v := range blk.Values {
			report(pass, prog, sums, fn, st, v, deferUnlocked, panicReported, waived)
			step(st, v)
		}
	}
}

// report emits findings for v given the locks held just before it.
func report(pass *lint.Pass, prog *ssair.Program, sums *summaries, fn *ssair.Func,
	st state, v *ssair.Value, deferUnlocked, panicReported map[string]bool, waived func(*ssair.Value) bool) {

	held := len(st) > 0

	// Re-lock of an already-held lock (self-deadlock, or reader
	// starvation for RLock-under-Lock).
	if v.Op == ssair.OpCall && v.Callee != nil && v.Aux != "defer" && v.Aux != "go" {
		if lockKind(v.Callee) == "lock" {
			if id := recvIdent(v); id != "?" && st[id] && !waived(v) {
				pass.Reportf(v.Pos, "%s of %s while %s is already held (self-deadlock)", v.Callee.Name(), id, id)
			}
			return
		}
		if lockKind(v.Callee) == "unlock" {
			return
		}
	}

	if !held {
		return
	}

	switch v.Op {
	case ssair.OpSend:
		if v.Aux == "" && !waived(v) {
			pass.Reportf(v.Pos, "channel send while holding %s; Close-style writers on the same lock deadlock here", st.names())
		}
	case ssair.OpRecv:
		if v.Aux == "" && !waived(v) {
			pass.Reportf(v.Pos, "channel receive while holding %s", st.names())
		}
	case ssair.OpRangeKey:
		if v.Aux == "chan" && !waived(v) {
			pass.Reportf(v.Pos, "range over channel while holding %s", st.names())
		}
	case ssair.OpSelect:
		if v.Aux != "default" && !waived(v) {
			pass.Reportf(v.Pos, "blocking select while holding %s; add a default clause or release the lock first", st.names())
		}
	case ssair.OpPanic:
		reportPanicHeld(pass, fn, st, v, deferUnlocked, panicReported, waived, "panic")
	case ssair.OpCall:
		if v.Aux == "defer" || v.Aux == "go" {
			return
		}
		t := callTarget(prog, v)
		name := calleeName(v)
		if (v.Callee != nil && blockingStdlib(v.Callee)) || (t != nil && sums.blocks[t]) {
			if !waived(v) {
				pass.Reportf(v.Pos, "call to %s may block (channel or lock wait) while holding %s", name, st.names())
			}
		}
		if t != nil && sums.panics[t] {
			reportPanicHeld(pass, fn, st, v, deferUnlocked, panicReported, waived, "call to "+name+" may panic")
		}
	}
}

func reportPanicHeld(pass *lint.Pass, fn *ssair.Func, st state, v *ssair.Value,
	deferUnlocked, panicReported map[string]bool, waived func(*ssair.Value) bool, what string) {
	for id := range st {
		if id == "?" || deferUnlocked[id] || panicReported[id] {
			continue
		}
		panicReported[id] = true
		if !waived(v) {
			pass.Reportf(v.Pos, "%s while %s is held without a deferred unlock; the lock stays held through the unwind", what, id)
		}
	}
}

func calleeName(v *ssair.Value) string {
	if v.Callee != nil {
		return v.Callee.Name()
	}
	if len(v.Args) > 0 && v.Args[0].Op == ssair.OpClosure {
		return "func literal"
	}
	return "dynamic callee"
}
