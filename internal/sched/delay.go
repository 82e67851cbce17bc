package sched

import (
	"fmt"

	"schedcomp/internal/arena"
	"schedcomp/internal/dag"
	"schedcomp/internal/obs"
)

// Timing-builder instruments. The counts are accumulated in locals
// inside buildWith and flushed once per build, so the inner loop pays
// nothing and a disabled registry costs three atomic loads per call.
var (
	buildCandHits = obs.Default().Counter("sched_build_cand_cache_hits_total",
		"Ready candidate start times left waiting, unrecomputed, at each commit.")
	buildCandMisses = obs.Default().Counter("sched_build_cand_cache_misses_total",
		"Candidate start times recomputed (committing and woken processors).")
	buildWakeups = obs.Default().Counter("sched_build_waiter_wakeups_total",
		"Processors woken because the node their head waited on finished.")
)

// DelayFunc computes the communication delay for a message of the
// given weight sent between two processors. The uniform model of the
// paper is: 0 when from == to, weight otherwise.
type DelayFunc func(from, to int, weight int64) int64

// UniformDelay is the paper's execution model.
func UniformDelay(from, to int, weight int64) int64 {
	if from == to {
		return 0
	}
	return weight
}

// BuildWith is Build under an arbitrary communication delay model —
// used to evaluate placements on non-uniform topologies (rings,
// meshes, hypercubes) in the topology example and benches.
//
// Unlike Build, BuildWith never renumbers processors: with a
// non-uniform delay the processor indices are physical machine
// locations, and compacting them would silently move tasks to
// different network positions. Empty processors therefore count
// toward NumProcs here.
func BuildWith(g *dag.Graph, pl *Placement, delay DelayFunc) (*Schedule, error) {
	if err := pl.Check(g); err != nil {
		return nil, err
	}
	return buildWith(g, pl, delay)
}

// buildWith is BuildWith for placements already known to pass Check.
//
// A task's start time is the maximum of its processor's free time (the
// finish of the task before it in the queue) and its predecessors'
// data arrival times, so the schedule is the same in whatever order
// ready queue heads are committed. Each processor's head is either
// ready, with that start time as its candidate, or parked on its first
// unfinished predecessor (waiter lists). Ready processors wait on a
// stack; after a commit only the committing processor and the
// processors woken by the committed node are recomputed, and a parked
// head resumes its predecessor scan where it stopped. The build costs
// O(P + n + E + wakeups) instead of a scan of all P processors per
// committed task.
//
//lint:boundedidx nodes come from the checked placement (< n), processors from the stack (< numProcs)
func buildWith(g *dag.Graph, pl *Placement, delay DelayFunc) (*Schedule, error) {
	if delay == nil {
		delay = UniformDelay
	}
	n := g.NumNodes()
	numProcs := len(pl.Order)
	s := &Schedule{Graph: g, ByNode: make([]Assignment, n), NumProcs: numProcs}
	if n == 0 {
		return s, nil
	}
	// Working arrays come zeroed from the pooled arena; only the
	// resulting Schedule's ByNode escapes the call.
	scratch := arena.Get()
	defer scratch.Release()
	b := builder{
		pl:         pl,
		csr:        g.CSR(),
		delay:      delay,
		done:       scratch.Bools(n),
		finish:     scratch.Int64s(n),
		waiterHead: scratch.Int32s(n),
		waiterNext: scratch.Int32s(numProcs),
		head:       scratch.Ints(numProcs),
		scan:       scratch.Ints(numProcs),
		free:       scratch.Int64s(numProcs),
		cand:       scratch.Int64s(numProcs),
		ready:      scratch.Int32s(numProcs)[:0],
	}
	for i := range b.waiterHead {
		b.waiterHead[i] = -1
	}
	for p := 0; p < numProcs; p++ {
		b.refresh(p)
	}
	var candHits, wakeups uint64
	for remaining := n; remaining > 0; remaining-- {
		if len(b.ready) == 0 {
			buildCandHits.Add(candHits)
			buildCandMisses.Add(b.misses)
			buildWakeups.Add(wakeups)
			return nil, fmt.Errorf("sched: placement order deadlocks against precedence (%d tasks left)", remaining)
		}
		p := int(b.ready[len(b.ready)-1])
		b.ready = b.ready[:len(b.ready)-1]
		candHits += uint64(len(b.ready))
		start := b.cand[p]
		v := pl.Order[p][b.head[p]]
		f := start + g.Weight(v)
		s.ByNode[v] = Assignment{Node: v, Proc: p, Start: start, Finish: f}
		if f > s.Makespan {
			s.Makespan = f
		}
		b.done[v] = true
		b.finish[v] = f
		b.free[p] = f
		b.head[p]++
		b.scan[p], b.cand[p] = 0, 0
		b.refresh(p)
		// Detach v's waiter list before walking it: a woken processor
		// may park again, relinking its waiterNext entry.
		w := b.waiterHead[v]
		b.waiterHead[v] = -1
		for w != -1 {
			next := b.waiterNext[w]
			b.refresh(int(w))
			wakeups++
			w = next
		}
	}
	buildCandHits.Add(candHits)
	buildCandMisses.Add(b.misses)
	buildWakeups.Add(wakeups)
	return s, nil
}

// builder is the working state of one buildWith call; every slice is
// arena scratch, indexed by node (done, finish, waiterHead) or by
// processor (the rest).
type builder struct {
	pl    *Placement
	csr   *dag.CSR
	delay DelayFunc

	done   []bool
	finish []int64
	// waiterHead[v] is the first processor whose queue head is parked
	// on node v; waiterNext chains the rest (a processor waits on at
	// most one node at a time).
	waiterHead []int32
	waiterNext []int32
	head       []int   // position of each processor's queue head
	scan       []int   // predecessors of the head already seen finished
	free       []int64 // finish time of each processor's last task
	// cand[p] is p's candidate start while p is ready, and the partial
	// maximum over its head's first scan[p] predecessors while parked.
	cand   []int64
	ready  []int32 // stack of processors with a ready head
	misses uint64  // candidate recomputations, for the obs counter
}

// refresh recomputes processor p's candidate start after its queue
// head advanced or the node it waited on finished: p either joins the
// ready stack or parks on the head's next unfinished predecessor.
//
//lint:boundedidx p < numProcs and predecessor IDs < n, the lengths the slices were carved at
func (b *builder) refresh(p int) {
	b.misses++
	q := b.pl.Order[p]
	if b.head[p] >= len(q) {
		return // queue drained
	}
	preds, ws := b.csr.Preds(q[b.head[p]])
	start := b.cand[p]
	for j := b.scan[p]; j < len(preds); j++ {
		u := preds[j]
		if !b.done[u] {
			b.scan[p], b.cand[p] = j, start
			b.waiterNext[p] = b.waiterHead[u]
			b.waiterHead[u] = int32(p)
			return
		}
		if t := b.finish[u] + b.delay(b.pl.Proc[u], p, ws[j]); t > start {
			start = t
		}
	}
	b.cand[p] = max(start, b.free[p])
	b.ready = append(b.ready, int32(p))
}
