package serve

import (
	"context"
	"fmt"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
)

// Cached scheduling. With a cache configured, every request is first
// resolved to its canonical content key; a hit returns immediately —
// no admission, no queue, no shedding — and a miss schedules the
// CANONICAL CLONE of the graph through the normal pipeline path, then
// stores the canonical-space schedule.
//
// Scheduling the clone rather than the submitted graph is what makes
// the cache's consistency contract hold across relabelings: a
// heuristic's tie-breaks depend on node numbering, so two isomorphic
// graphs scheduled directly could legitimately get different (equally
// valid) schedules. The canonical clone is the same byte-for-byte
// graph for every member of the isomorphism class, so the computed
// schedule is too, and each requester only differs in the final
// remapping through its own canonical permutation.

// ScheduleCached is Schedule with cache semantics: the returned status
// reports whether the schedule came from the cache (CacheNone when the
// pipeline has no cache; then it behaves exactly like Schedule).
func (p *Pipeline) ScheduleCached(ctx context.Context, s heuristics.Scheduler, g *dag.Graph) (*sched.Schedule, CacheStatus, error) {
	r := p.resolve(task{ctx: ctx, s: s, g: g}, false)
	return r.Schedule, r.Cache, r.Err
}

// resolve is the one cache step in front of the pool: it runs t
// through await (with the given admission discipline) on a cache miss
// and serves hits without admission. A nil cache goes straight to
// await. Quality-tier results keep their provenance as cache metadata
// (an anytime.Result value, immutable once stored); plain requests
// carry nil metadata.
func (p *Pipeline) resolve(t task, blocking bool) Result {
	if p.cache == nil {
		return p.await(t, blocking)
	}
	g, name := t.g, QualityBest
	if !t.quality {
		name = t.s.Name()
	}
	key := schedcache.Key{
		Fingerprint: g.CanonicalHash(),
		Heuristic:   name,
		// NProcs 0: the serving layer always lets the heuristic choose
		// the processor count today; the key dimension is reserved.
	}
	canonical, meta, st, err := p.cache.DoMeta(t.ctx, key, g.CanonicalEncoding(), func(ctx context.Context) (*sched.Schedule, any, error) {
		c := t
		c.ctx, c.g = ctx, g.CanonicalClone()
		r := p.await(c, blocking)
		var meta any
		if r.Best != nil {
			meta = *r.Best
		}
		return r.Schedule, meta, r.Err
	})
	if err != nil {
		return Result{Cache: CacheMiss, Err: err}
	}
	r := Result{Schedule: remapSchedule(canonical, g), Cache: CacheMiss}
	if st == schedcache.Hit || st == schedcache.Coalesced {
		r.Cache = CacheHit
	}
	if t.quality {
		best, ok := meta.(anytime.Result)
		if !ok {
			// Unreachable unless another writer stored a foreign meta
			// under the QualityBest dimension; fail loudly rather than
			// fabricate an unproven bound.
			return Result{Cache: CacheMiss, Err: fmt.Errorf("serve: quality cache entry has unexpected metadata %T", meta)}
		}
		// Remapping keeps the makespan, so the stored gap still holds;
		// Elapsed reports the original computation's refinement time.
		best.Schedule = r.Schedule
		r.Best = &best
	}
	return r
}

// remapSchedule translates a canonical-space schedule back into the
// requesting graph's node numbering. Placement, timing and processor
// count are preserved exactly — node v of g executes where and when
// its canonical image perm[v] does — so the remapped schedule
// validates against g whenever the canonical one validates against
// the clone.
func remapSchedule(canonical *sched.Schedule, g *dag.Graph) *sched.Schedule {
	perm := g.CanonicalPerm()
	byNode := make([]sched.Assignment, len(canonical.ByNode))
	for v := range byNode {
		a := canonical.ByNode[perm[v]]
		byNode[v] = sched.Assignment{
			Node:   dag.NodeID(v),
			Proc:   a.Proc,
			Start:  a.Start,
			Finish: a.Finish,
		}
	}
	return &sched.Schedule{
		Graph:    g,
		ByNode:   byNode,
		NumProcs: canonical.NumProcs,
		Makespan: canonical.Makespan,
	}
}
