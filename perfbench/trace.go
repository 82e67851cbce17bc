package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"schedcomp/internal/core"
	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/schedcache"
	"schedcomp/internal/serve"
)

// The traced run replays a workload's request bodies in-process through
// the public functions of each layer, in the handler's order: dag.ReadJSON,
// CanonicalHash, then serve's ScheduleCached or ScheduleBest (which run
// Cache.Do, the heuristic's ScheduleContext, sched.Build and Validate).
// The order matters: a graph's lazy CSR and topological caches charge
// their cost to whichever layer touches them first.
//
// Spans come in three kinds:
//
//	timed     a call the benchmark timed directly;
//	derived   a step inside the program whose duration the benchmark
//	          read from the pipeline's own histogram (queue wait,
//	          service), exact per request because the replay is
//	          sequential; its start is unknown (start_ns -1);
//	replayed  a step the program runs internally (clone, Build,
//	          Validate, a Cache.Do hit), re-run on the same inputs right
//	          after the request and timed there.
//
// A span's self time is its duration minus its children's durations.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"` // since the trace began
	Dur    int64  `json:"dur_ns"`
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a timed span and returns its id.
func (t *tracer) open(name string, req, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Kind: "timed", Start: int64(start.Sub(t.epoch))})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.Dur = int64(end.Sub(t.epoch)) - s.Start
}

// add records a finished span.
func (t *tracer) add(name, kind string, req, parent int, start time.Time, dur time.Duration) int {
	id := t.open(name, req, parent, start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Kind = kind
	t.spans[id].Dur = int64(dur)
	if start.IsZero() {
		t.spans[id].Start = -1
	}
	return id
}

func (t *tracer) timed(name string, req, parent int, start time.Time) int {
	return t.add(name, "timed", req, parent, start, time.Since(start))
}

// reparent moves request req's heuristic spans from parent `from` to
// `to`: the worker records them before the service span exists.
func (t *tracer) reparent(req, from, to int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := from + 1; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Req == req && s.Parent == from && strings.HasPrefix(s.Name, "heuristics.") {
			s.Parent = to
		}
	}
}

// layerStats summarizes the spans by name: count, p50 duration, p50
// and total self time.
type layerStat struct {
	name              string
	n                 int
	p50, selfP50, sum float64 // µs
}

func (t *tracer) stats() []layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	dur := map[string][]float64{}
	self := map[string][]float64{}
	for i, s := range t.spans {
		dur[s.Name] = append(dur[s.Name], float64(s.Dur)/1e3)
		self[s.Name] = append(self[s.Name], float64(s.Dur-child[i])/1e3)
	}
	var out []layerStat
	for name, ds := range dur {
		sum := 0.0
		for _, x := range self[name] {
			sum += x
		}
		out = append(out, layerStat{name: name, n: len(ds), p50: median(ds), selfP50: median(self[name]), sum: sum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef rides the request context to the worker goroutine, so the
// heuristic's span joins its request.
type spanRef struct{ req, parent int }

type spanKey struct{}

// tracedScheduler times ScheduleContext inside the pipeline worker and
// keeps the last graph and placement, so the replay can re-run Build
// and Validate on them.
type tracedScheduler struct {
	inner heuristics.ContextScheduler
	name  string
	tr    *tracer
	mu    sync.Mutex
	g     *dag.Graph
	pl    *sched.Placement
}

func (s *tracedScheduler) Name() string { return s.name }

func (s *tracedScheduler) Schedule(g *dag.Graph) (*sched.Placement, error) {
	return s.ScheduleContext(context.Background(), g)
}

func (s *tracedScheduler) ScheduleContext(ctx context.Context, g *dag.Graph) (*sched.Placement, error) {
	start := time.Now()
	pl, err := s.inner.ScheduleContext(ctx, g)
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.tr.timed("heuristics."+s.name+".place", ref.req, ref.parent, start)
	}
	s.mu.Lock()
	s.g, s.pl = g, pl
	s.mu.Unlock()
	return pl, err
}

func (s *tracedScheduler) last() (*dag.Graph, *sched.Placement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g, s.pl
}

// replayer pushes request bodies through a private serve.Pipeline
// configured like schedserve's: `workers` workers, the default queue and
// a 4096-entry cache.
type replayer struct {
	tr      *tracer // nil: untraced
	pipe    *serve.Pipeline
	cache   *schedcache.Cache
	qwait   *obs.Histogram
	service *obs.Histogram
	sc      heuristics.Scheduler // nil: quality tier
	wrap    *tracedScheduler
}

func newReplayer(heuristic string, tr *tracer) (*replayer, error) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	r := &replayer{tr: tr, cache: schedcache.New(schedcache.Config{MaxEntries: 4096, MaxBytes: 64 << 20})}
	r.pipe = serve.New(serve.Config{Workers: workers, Cache: r.cache}, reg)
	r.qwait = reg.Histogram("serve_queue_wait_seconds",
		"Time from admission to a worker picking the request up.", obs.DefTimeBuckets)
	r.service = reg.Histogram("serve_service_seconds",
		"Worker time spent scheduling one request.", obs.DefTimeBuckets)
	if heuristic != serve.QualityBest {
		s, err := heuristics.New(heuristic)
		if err != nil {
			return nil, err
		}
		r.sc = s
		if tr != nil {
			r.wrap = &tracedScheduler{inner: s.(heuristics.ContextScheduler), name: heuristic, tr: tr}
			r.sc = r.wrap
		}
	}
	return r, nil
}

var errNotCached = errors.New("not cached")

// request replays one body. Untraced, it makes only the handler's
// calls; traced, it records the request's spans.
func (r *replayer) request(req int, body []byte) error {
	t := r.tr
	ctx := context.Background()
	if t == nil {
		g, err := dag.ReadJSON(bytes.NewReader(body))
		if err != nil {
			return err
		}
		g.CanonicalHash()
		g.CanonicalEncoding()
		if r.sc == nil {
			_, _, err = r.pipe.ScheduleBest(ctx, g, bestBudget)
		} else {
			_, _, err = r.pipe.ScheduleCached(ctx, r.sc, g)
		}
		return err
	}

	begin := time.Now()
	root := t.open("request", req, -1, begin)
	g, err := dag.ReadJSON(bytes.NewReader(body))
	t.timed("dag.decode", req, root, begin)
	if err != nil {
		return err
	}
	start := time.Now()
	fp := g.CanonicalHash()
	enc := g.CanonicalEncoding()
	t.timed("dag.canon", req, root, start)

	q0, s0 := r.qwait.Sum(), r.service.Sum()
	start = time.Now()
	cached := t.open("serve.cached", req, root, start)
	cctx := context.WithValue(ctx, spanKey{}, spanRef{req, cached})
	var st serve.CacheStatus
	if r.sc == nil {
		_, st, err = r.pipe.ScheduleBest(cctx, g, bestBudget)
	} else {
		_, st, err = r.pipe.ScheduleCached(cctx, r.sc, g)
	}
	end := time.Now()
	t.close(cached, end)
	t.close(root, end)
	if err != nil {
		return err
	}

	if st == serve.CacheMiss {
		t.add("serve.queue_wait", "derived", req, cached, time.Time{}, secs(r.qwait.Sum()-q0))
		svc := t.add("serve.service", "derived", req, cached, time.Time{}, secs(r.service.Sum()-s0))
		t.reparent(req, cached, svc)
		start = time.Now()
		g.CanonicalClone()
		t.add("dag.clone", "replayed", req, cached, start, time.Since(start))
		if r.wrap != nil {
			cg, pl := r.wrap.last()
			start = time.Now()
			sc, err := sched.Build(cg, pl)
			t.add("sched.build", "replayed", req, svc, start, time.Since(start))
			if err != nil {
				return err
			}
			start = time.Now()
			err = sc.Validate()
			t.add("sched.validate", "replayed", req, svc, start, time.Since(start))
			if err != nil {
				return err
			}
		}
	}
	// The entry is now cached either way: time Cache.Do's hit path (the
	// quality tier's is DoMeta, which stores its provenance).
	start = time.Now()
	if r.sc == nil {
		key := schedcache.Key{Fingerprint: fp, Heuristic: serve.QualityBest}
		_, _, _, err = r.cache.DoMeta(ctx, key, enc, func(context.Context) (*sched.Schedule, any, error) {
			return nil, nil, errNotCached
		})
	} else {
		key := schedcache.Key{Fingerprint: fp, Heuristic: r.sc.Name()}
		_, _, err = r.cache.Do(ctx, key, enc, func(context.Context) (*sched.Schedule, error) {
			return nil, errNotCached
		})
	}
	t.add("schedcache.do", "replayed", req, cached, start, time.Since(start))
	return err
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// replay runs bodies through a fresh replayer and returns the wall time.
func replay(heuristic string, bodies [][]byte, tr *tracer) (time.Duration, error) {
	r, err := newReplayer(heuristic, tr)
	if err != nil {
		return 0, err
	}
	defer r.pipe.Close()
	start := time.Now()
	for i, b := range bodies {
		if err := r.request(i, b); err != nil {
			return 0, fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	return time.Since(start), nil
}

// traceReplay measures the tracing overhead, writes the spans, prints
// the per-layer table and reports the replay's per-layer metrics.
func traceReplay(o options, workloadName, heuristic string, bodies [][]byte, out *outcome) error {
	// Untraced and traced replays alternate, three of each; the
	// overhead compares their medians. The spans kept are the last
	// traced replay's.
	var plain, traced []float64
	var tr *tracer
	for i := 0; i < 3; i++ {
		d, err := replay(heuristic, bodies, nil)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())
		tr = newTracer()
		if _, err := replay(heuristic, bodies, tr); err != nil {
			return err
		}
		var sum int64
		for _, s := range tr.spans {
			if s.Name == "request" {
				sum += s.Dur
			}
		}
		traced = append(traced, float64(sum)/1e9)
	}
	overhead := 100 * (median(traced) - median(plain)) / median(plain)

	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.jsonl", workloadName, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	stats := tr.stats()
	fmt.Printf("== traced replay of %d requests: untraced %.3f s, traced %.3f s, overhead %.2f%%\n",
		len(bodies), plain, traced, overhead)
	fmt.Printf("  %-30s %8s %12s %12s %12s\n", "span", "count", "p50 us", "self p50 us", "self total ms")
	by := map[string]layerStat{}
	for _, s := range stats {
		by[s.name] = s
		fmt.Printf("  %-30s %8d %12.2f %12.2f %12.2f\n", s.name, s.n, s.p50, s.selfP50, s.sum/1e3)
	}
	out.set("dag.decode_us", "us", by["dag.decode"].p50)
	out.set("dag.canon_us", "us", by["dag.canon"].p50)
	out.set("dag.clone_us", "us", by["dag.clone"].p50)
	out.set("schedcache.do_us", "us", by["schedcache.do"].p50)
	out.set("serve.cached_self_us", "us", by["serve.cached"].selfP50)
	out.set("trace.overhead_pct", "%", overhead)
	return nil
}

// allocsOf counts the heap allocations of one call of f.
func allocsOf(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// sweep times and counts allocations of each layer's call on sample
// graphs: decode and canonical hashing of the body, then every
// registered heuristic's ScheduleContext on a fresh canonical clone
// (as a cache miss schedules it), and sched.Build and Validate of its
// placement.
func sweep(bodies [][]byte, out *outcome) error {
	ctx := context.Background()
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	us := func(start time.Time) float64 { return float64(time.Since(start)) / 1e3 }
	names := heuristics.Names()
	for _, body := range bodies {
		add("dag.decode_allocs", allocsOf(func() { dag.ReadJSON(bytes.NewReader(body)) }))
		g, err := dag.ReadJSON(bytes.NewReader(body))
		if err != nil {
			return err
		}
		add("dag.canon_allocs", allocsOf(func() { g.CanonicalHash(); g.CanonicalEncoding() }))
		for _, name := range names {
			s, err := heuristics.New(name)
			if err != nil {
				return err
			}
			cs := s.(heuristics.ContextScheduler)
			cg := g.CanonicalClone()
			start := time.Now()
			pl, err := cs.ScheduleContext(ctx, cg)
			add("heuristics."+name+".place_us", us(start))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fresh := g.CanonicalClone()
			add("heuristics."+name+".place_allocs", allocsOf(func() { cs.ScheduleContext(ctx, fresh) }))
			start = time.Now()
			sc, err := sched.Build(cg, pl)
			add("sched.build_us", us(start))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			add("sched.build_allocs", allocsOf(func() { sched.Build(cg, pl) }))
			start = time.Now()
			err = sc.Validate()
			add("sched.validate_us", us(start))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	for name, xs := range samples {
		unit := "us"
		if strings.HasSuffix(name, "_allocs") {
			unit = "count"
		}
		out.set(name, unit, median(xs))
	}
	return nil
}

// coreQueueWait evaluates graphs with every heuristic through
// core.Evaluate with the default registry on, and returns the mean
// time a worker waited for its next graph.
func coreQueueWait(graphs []*dag.Graph) (float64, error) {
	c := &corpus.Corpus{Spec: corpusSpec(), Sets: []corpus.Set{{Graphs: graphs}}}
	h := obs.Default().Histogram("core_eval_queue_wait_seconds",
		"Time a worker spends waiting to receive its next graph.", obs.DefTimeBuckets)
	obs.Default().SetEnabled(true)
	defer obs.Default().SetEnabled(false)
	n0, s0 := h.Count(), h.Sum()
	if _, err := core.Evaluate(c, core.Options{Workers: workers, Factories: newPortfolio().factories()}); err != nil {
		return 0, err
	}
	return meanSince(h, n0, s0), nil
}

func meanSince(h *obs.Histogram, n0 uint64, s0 float64) float64 {
	n := h.Count() - n0
	if n == 0 {
		return 0
	}
	return (h.Sum() - s0) / float64(n) * 1e6
}

// sample picks n bodies spread evenly over idx.
func sample(bodies [][]byte, idx []int, n int) [][]byte {
	if len(idx) <= n {
		n = len(idx)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, bodies[idx[i*len(idx)/n]])
	}
	return out
}

// serverLayers reports the per-layer metrics read from schedserve's
// /metrics around a served phase, and the client's view of it.
func serverLayers(before, after series, rs []reply, out *outcome) {
	hits := delta(before, after, "schedcache_hits_total") + delta(before, after, "schedcache_coalesced_total")
	lookups := hits + delta(before, after, "schedcache_misses_total")
	out.set("schedcache.hit_ratio", "ratio", hits/max(1, lookups))
	out.set("schedcache.evictions", "count", delta(before, after, "schedcache_evictions_total"))
	out.set("schedcache.entries", "count", after.sum("schedcache_entries"))
	perCall := func(name string, labels ...string) float64 {
		n := delta(before, after, name+"_count", labels...)
		if n == 0 {
			return 0
		}
		return delta(before, after, name+"_sum", labels...) / n * 1e6
	}
	out.set("serve.queue_wait_us", "us", perCall("serve_queue_wait_seconds"))
	out.set("serve.service_us", "us", perCall("serve_service_seconds"))
	out.set("serve.shed_share", "ratio", delta(before, after, "serve_shed_total")/max(1, delta(before, after, "serve_submitted_total")))
	server := perCall("serve_request_seconds", `path="/schedule"`)
	out.set("schedserve.request_us", "us", server)
	var client []float64
	for _, r := range rs {
		if r.ok() {
			client = append(client, float64(r.done-r.sent)/1e3)
		}
	}
	out.set("client.overhead_us", "us", mean(client)-server)
}

// anytimeLayers reports the quality tier's mean work per request.
func anytimeLayers(qs []quality, out *outcome) {
	var gens, imps, states []float64
	for _, q := range qs {
		gens = append(gens, float64(q.generations))
		imps = append(imps, float64(q.improvements))
		states = append(states, float64(q.probeStates))
	}
	out.set("anytime.generations", "count", mean(gens))
	out.set("anytime.improvements", "count", mean(imps))
	out.set("opt.probe_states", "count", mean(states))
}

// Sizes of the traced run's in-process parts.
const (
	sweepGraphs = 40
	replayPlain = 1000
	replayBest  = 60
	probeBodies = 400
	coreGraphs  = 100
)

// traceServed reports a serve-* workload's per-layer metrics: the served
// run's /metrics deltas and replies (the open-loop phase for queue
// wait and service, the closed-loop phase for request time), then the
// in-process replay and sweep of the same bodies.
func traceServed(o options, w workload, bs *bodySet, run *servedRun, out *outcome) error {
	// Server-side per-request means over the closed-loop phase; cache
	// counters over the whole run.
	serverLayers(run.scrapes[0], run.scrapes[1], run.closed, out)
	whole := &outcome{}
	serverLayers(run.scrapes[0], run.scrapes[2], nil, whole)
	open := &outcome{}
	serverLayers(run.scrapes[1], run.scrapes[2], nil, open)
	for _, name := range []string{"schedcache.hit_ratio", "schedcache.evictions", "serve.shed_share"} {
		out.metrics[name] = whole.metrics[name]
	}
	for _, name := range []string{"serve.queue_wait_us", "serve.service_us"} {
		out.metrics[name] = open.metrics[name]
	}
	out.set("gen.graphs_per_s", "1/s", float64(run.graphs)/run.genTime.Seconds())
	if w.heuristic == serve.QualityBest {
		anytimeLayers(run.checks.q, out)
	} else {
		anytimeLayers(nil, out)
	}

	n := replayPlain
	if w.heuristic == serve.QualityBest {
		n = replayBest
	}
	if err := traceReplay(o, w.name, w.heuristic, sample(bs.bodies, bs.order, n), out); err != nil {
		return err
	}
	sweepBodies := sample(bs.bodies, uniqueSlots(bs), sweepGraphs)
	if err := sweep(sweepBodies, out); err != nil {
		return err
	}
	graphs, err := decodeAll(sample(bs.bodies, uniqueSlots(bs), coreGraphs))
	if err != nil {
		return err
	}
	qw, err := coreQueueWait(graphs)
	if err != nil {
		return err
	}
	out.set("core.queue_wait_us", "us", qw)
	return nil
}

// uniqueSlots lists the body indices of the request order without
// repeats, in order.
func uniqueSlots(bs *bodySet) []int {
	seen := map[int]bool{}
	var out []int
	for _, b := range bs.order {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

func decodeAll(bodies [][]byte) ([]*dag.Graph, error) {
	var out []*dag.Graph
	for _, b := range bodies {
		g, err := dag.ReadJSON(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// traceCorpus reports the corpus workload's per-layer metrics. The
// corpus path decodes, hashes and serves nothing, so those layers are
// measured on its graphs sent as MCP requests: a short closed loop
// against a fresh schedserve, then the in-process replay and sweep.
func traceCorpus(o options, c *corpus.Corpus, genSeconds float64, qwait *obs.Histogram, out *outcome) error {
	out.set("gen.graphs_per_s", "1/s", float64(c.NumGraphs())/genSeconds)
	if qwait.Count() == 0 {
		return errors.New("core queue wait histogram is empty")
	}
	out.set("core.queue_wait_us", "us", qwait.Sum()/float64(qwait.Count())*1e6)
	anytimeLayers(nil, out)

	var graphs []*dag.Graph
	for _, s := range c.Sets {
		graphs = append(graphs, s.Graphs...)
	}
	bodies, err := encodeAll(graphs)
	if err != nil {
		return err
	}
	idx := seq(len(bodies))

	cl := newClient()
	defer cl.close()
	srv, err := startServer(o.server, cl)
	if err != nil {
		return err
	}
	defer srv.stop()
	probe := sample(bodies, idx, probeBodies)
	before, err := srv.scrape(cl)
	if err != nil {
		return err
	}
	rs, _ := closedLoop(cl, srv.base+"/schedule?heuristic=MCP", probe, seq(len(probe)), time.Hour)
	after, err := srv.scrape(cl)
	if err != nil {
		return err
	}
	var cs checkStats
	cs.add([]*checker{newChecker(probe, 0, "MCP", false)}, rs)
	out.failed += cs.refused + cs.wrong
	out.wrong += cs.wrong
	out.attempted += len(rs)
	serverLayers(before, after, rs, out)

	if err := traceReplay(o, "corpus", "MCP", sample(bodies, idx, replayPlain), out); err != nil {
		return err
	}
	return sweep(sample(bodies, idx, sweepGraphs), out)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
