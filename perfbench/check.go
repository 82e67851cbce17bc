package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// scheduleReply is the part of a /schedule response the checks read.
type scheduleReply struct {
	Heuristic   string       `json:"heuristic"`
	Nodes       int          `json:"nodes"`
	Makespan    int64        `json:"makespan"`
	Procs       int          `json:"procs"`
	Assignments []assignment `json:"assignments"`
	Quality     *struct {
		LowerBound   int64 `json:"lower_bound"`
		Gap          int64 `json:"gap"`
		Proven       bool  `json:"proven"`
		Generations  int   `json:"generations"`
		Improvements int   `json:"improvements"`
		BnbStates    int64 `json:"bnb_states"`
	} `json:"quality"`
}

type assignment struct {
	Node   int   `json:"node"`
	Proc   int   `json:"proc"`
	Start  int64 `json:"start"`
	Finish int64 `json:"finish"`
}

// quality is one checked schedule's distance from its lower bound.
type quality struct {
	makespan, lowerBound int64
	generations          int
	improvements         int
	probeStates          int64
}

func (q quality) gapPct() float64 {
	if q.makespan == 0 {
		return 0
	}
	return 100 * float64(q.makespan-q.lowerBound) / float64(q.makespan)
}

func (q quality) proven() bool { return q.makespan == q.lowerBound }

// checker validates served schedules. It decodes each request body
// once and remembers the last response checked per body, so repeated
// identical replies cost one comparison.
type checker struct {
	bodies [][]byte
	// keep is the number of leading bodies, the repeat pool's, whose
	// decoded graphs and last responses survive reset.
	keep      int
	heuristic string // expected "heuristic" field
	best      bool   // quality tier: check the gap identity
	graphs    map[int]*dag.Graph
	last      map[int]checked
}

// checked is the last response checked for a body.
type checked struct {
	resp []byte
	q    quality
}

func newChecker(bodies [][]byte, keep int, heuristic string, best bool) *checker {
	return &checker{bodies: bodies, keep: keep, heuristic: heuristic, best: best,
		graphs: map[int]*dag.Graph{}, last: map[int]checked{}}
}

// reset forgets the decoded graphs and checked responses of every body
// but the first keep.
func (c *checker) reset() {
	for b := range c.graphs {
		if b >= c.keep {
			delete(c.graphs, b)
		}
	}
	for b := range c.last {
		if b >= c.keep {
			delete(c.last, b)
		}
	}
}

func (c *checker) graph(body int) (*dag.Graph, error) {
	if g, ok := c.graphs[body]; ok {
		return g, nil
	}
	g, err := dag.ReadJSON(bytes.NewReader(c.bodies[body]))
	if err != nil {
		return nil, fmt.Errorf("request body %d: %w", body, err)
	}
	c.graphs[body] = g
	return g, nil
}

// check rebuilds the served schedule from its assignments with
// sched.Build, validates it, and matches makespan, processor count and
// every task's start and finish. Quality-tier replies must also keep
// the gap identity: gap = makespan − lower_bound, proven exactly when
// the gap is 0, and a lower bound no smaller than the
// communication-free critical path.
func (c *checker) check(body int, resp []byte) (quality, error) {
	if l, ok := c.last[body]; ok && bytes.Equal(l.resp, resp) {
		return l.q, nil
	}
	g, err := c.graph(body)
	if err != nil {
		return quality{}, err
	}
	var r scheduleReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return quality{}, fmt.Errorf("response to body %d: %w", body, err)
	}
	if r.Heuristic != c.heuristic {
		return quality{}, fmt.Errorf("body %d: heuristic %q, want %q", body, r.Heuristic, c.heuristic)
	}
	n := g.NumNodes()
	if r.Nodes != n || len(r.Assignments) != n {
		return quality{}, fmt.Errorf("body %d: %d nodes, %d assignments, graph has %d", body, r.Nodes, len(r.Assignments), n)
	}
	pl := sched.NewPlacement(n)
	order := slices.Clone(r.Assignments)
	slices.SortFunc(order, func(a, b assignment) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	for _, a := range order {
		if a.Node < 0 || a.Node >= n || a.Proc < 0 || pl.Proc[a.Node] != -1 {
			return quality{}, fmt.Errorf("body %d: bad assignment %+v", body, a)
		}
		pl.Assign(dag.NodeID(a.Node), a.Proc)
	}
	sc, err := sched.Build(g, pl)
	if err != nil {
		return quality{}, fmt.Errorf("body %d: rebuild: %w", body, err)
	}
	if err := sc.Validate(); err != nil {
		return quality{}, fmt.Errorf("body %d: %w", body, err)
	}
	if sc.Makespan != r.Makespan || sc.NumProcs != r.Procs {
		return quality{}, fmt.Errorf("body %d: served makespan %d on %d procs, rebuilt %d on %d",
			body, r.Makespan, r.Procs, sc.Makespan, sc.NumProcs)
	}
	for _, a := range r.Assignments {
		b := sc.ByNode[a.Node]
		if a.Start != b.Start || a.Finish != b.Finish {
			return quality{}, fmt.Errorf("body %d: node %d served at [%d,%d], rebuilt [%d,%d]",
				body, a.Node, a.Start, a.Finish, b.Start, b.Finish)
		}
	}
	q := quality{makespan: r.Makespan, lowerBound: criticalPathNoComm(g)}
	if c.best {
		qb := r.Quality
		switch {
		case qb == nil:
			return quality{}, fmt.Errorf("body %d: quality tier reply has no quality block", body)
		case qb.Gap != r.Makespan-qb.LowerBound || qb.Proven != (qb.Gap == 0):
			return quality{}, fmt.Errorf("body %d: gap identity broken: makespan %d, lower bound %d, gap %d, proven %v",
				body, r.Makespan, qb.LowerBound, qb.Gap, qb.Proven)
		case qb.Gap < 0 || qb.LowerBound < q.lowerBound:
			return quality{}, fmt.Errorf("body %d: lower bound %d outside [%d, %d]", body, qb.LowerBound, q.lowerBound, r.Makespan)
		}
		q.lowerBound = qb.LowerBound
		q.generations, q.improvements, q.probeStates = qb.Generations, qb.Improvements, qb.BnbStates
	}
	c.last[body] = checked{resp: resp, q: q}
	return q, nil
}

// criticalPathNoComm is the communication-free critical path: no
// schedule of g can be shorter.
func criticalPathNoComm(g *dag.Graph) int64 {
	bl, err := g.BLevelsNoComm()
	if err != nil {
		return 0
	}
	return slices.Max(append(bl, 0))
}
