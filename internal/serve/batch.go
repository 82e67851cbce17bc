package serve

import (
	"context"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
)

// ScheduleBatch runs every graph in graphs through the pipeline and
// calls emit exactly once per item, in input order, as results become
// available. factory must return a fresh scheduler per item: items
// run concurrently across the pool, so a shared instance could race.
//
// Items are admitted with the blocking path, so a batch larger than
// the queue feeds the pool at the pool's pace instead of flooding it.
// Submission runs concurrently with emission: early items stream out
// while later ones are still queued. With a cache configured, items
// are resolved through it concurrently (hits bypass the queue) and
// each Result carries its CacheStatus.
//
// If ctx ends mid-batch, items not yet admitted are reported with
// ctx's error and items in flight are cancelled by the workers; emit
// still runs once per item, in order, so the stream stays aligned
// with the input. A cancelled item carries the context error and a
// nil Schedule — a partial placement never reaches the stream. If
// emit returns an error, emission stops, in-flight items drain, and
// ScheduleBatch returns that error.
func (p *Pipeline) ScheduleBatch(ctx context.Context, factory func() heuristics.Scheduler, graphs []*dag.Graph, emit func(Result) error) error {
	n := len(graphs)
	if n == 0 {
		return nil
	}
	// Capacity n: every item delivers exactly one Result here, either
	// from a worker or from a failed admission, so nothing ever blocks.
	done := make(chan Result, n)
	if p.cache != nil {
		// Cached path: items resolve through the cache concurrently so
		// a hit on item k streams out without waiting behind item k-1's
		// computation. The goroutine fan-out is bounded separately from
		// the queue because hits never enter the queue at all; misses
		// still use blocking admission, preserving the backpressure
		// contract. factory runs sequentially in submission order — its
		// implementations may mutate shared state.
		go func() {
			sem := make(chan struct{}, p.cfg.Workers+p.cfg.QueueDepth)
			for i, g := range graphs {
				t := task{ctx: ctx, s: factory(), g: g}
				sem <- struct{}{}
				go func(i int, t task) {
					defer func() { <-sem }()
					r := p.resolve(t, true)
					r.Index = i
					done <- r
				}(i, t)
			}
		}()
	} else {
		// Uncached path: one goroutine admits the items in sequence, so
		// they enter the queue in input order (item k+1 never overtakes
		// item k); workers deliver straight to done.
		go func() {
			for i, g := range graphs {
				t := task{ctx: ctx, s: factory(), g: g, index: i, done: done}
				if err := p.admit(t, true); err != nil {
					done <- Result{Index: i, Err: err}
				}
			}
		}()
	}

	pending := make([]*Result, n)
	next := 0
	var emitErr error
	for received := 0; received < n; received++ {
		r := <-done
		if emitErr != nil {
			continue // drain without emitting
		}
		pending[r.Index] = &r
		for next < n && pending[next] != nil {
			out := *pending[next]
			pending[next] = nil
			if err := emit(out); err != nil {
				emitErr = err
				break
			}
			next++
		}
	}
	return emitErr
}
