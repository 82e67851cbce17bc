package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"schedcomp/internal/corpus"
	"schedcomp/internal/dag"
	"schedcomp/internal/gen"
	"schedcomp/internal/workloads"
)

// Graph sizes of the served traffic. Paper PDGs span the corpus range;
// small graphs are within reach of the anytime tier's branch-and-bound
// probe, which only attempts graphs of at most 14 tasks.
const (
	paperMinNodes, paperMaxNodes = 40, 120
	smallMinNodes, smallMaxNodes = 9, 13
)

// Seed streams, so that the unique graphs, the repeat pool, the
// request order and the warm-up graphs of one seed never share draws.
const (
	streamUnique = iota + 1
	streamPool
	streamOrder
	streamWarm
	streamVariant
)

// streamSeed spreads (seed, stream, i) into one generator seed
// (splitmix64 finalizer).
func streamSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)
	for _, k := range []uint64{uint64(stream), uint64(i) + 1} {
		z ^= k * 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// mixedGraph returns stratum j of the served graph mix: three in four
// are paper PDGs of 40–120 nodes cycling through the 60 Table 1
// classes, one in four is a structured kernel from internal/workloads
// (FFT, Gaussian elimination, LU, Laplace, divide and conquer,
// fork-join, pipeline, Cholesky, 2-D stencil) with randomized costs.
func mixedGraph(rng *rand.Rand, j int) (*dag.Graph, error) {
	if j%4 == 3 {
		return structuredGraph(rng, j/4)
	}
	classes := corpus.Classes()
	paper := j - j/4
	n := paperMinNodes + rng.Intn(paperMaxNodes-paperMinNodes+1)
	return paperGraph(rng, classes[paper%len(classes)], n)
}

// smallGraph returns a paper PDG of 9–13 nodes in class j mod 60.
func smallGraph(rng *rand.Rand, j int) (*dag.Graph, error) {
	classes := corpus.Classes()
	n := smallMinNodes + rng.Intn(smallMaxNodes-smallMinNodes+1)
	return paperGraph(rng, classes[j%len(classes)], n)
}

func paperGraph(rng *rand.Rand, cl corpus.Class, nodes int) (*dag.Graph, error) {
	p := gen.Params{Nodes: nodes, Anchor: cl.Anchor, WMin: cl.WRange.Min, WMax: cl.WRange.Max, Gran: cl.Band}
	for attempt := 0; attempt < 50; attempt++ {
		g, err := gen.Generate(p, rand.New(rand.NewSource(rng.Int63())))
		if err == nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no %d-node graph in class %s", nodes, cl)
}

// structuredGraph builds workload kind k mod 9 at a random size of
// roughly 30–120 nodes, then draws every node and edge weight around
// the kernel's uniform costs, so each graph has unique content.
func structuredGraph(rng *rand.Rand, k int) (*dag.Graph, error) {
	task := int64(10 + rng.Intn(91))
	msg := 1 + int64(float64(task)*(0.1+1.9*rng.Float64()))
	pick := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	var g *dag.Graph
	switch k % 9 {
	case 0:
		g = workloads.FFT(pick(3, 4), task, msg)
	case 1:
		g = workloads.GaussianElimination(pick(7, 12), task, msg)
	case 2:
		g = workloads.LU(pick(4, 6), task, msg)
	case 3:
		g = workloads.Laplace(pick(5, 8), pick(3, 6), task, msg)
	case 4:
		g = workloads.DivideAndConquer(pick(4, 5), task, msg)
	case 5:
		g = workloads.ForkJoin(pick(3, 6), pick(6, 14), task, msg)
	case 6:
		g = workloads.Pipeline(pick(3, 6), pick(8, 16), task, msg)
	case 7:
		g = workloads.Cholesky(pick(5, 7), task, msg)
	default:
		g = workloads.Stencil2D(pick(3, 4), pick(3, 6), task, msg)
	}
	jitter := func(w int64) int64 { return w/2 + 1 + rng.Int63n(w+1) }
	for v := 0; v < g.NumNodes(); v++ {
		g.SetWeight(dag.NodeID(v), jitter(g.Weight(dag.NodeID(v))))
	}
	g.MapEdgeWeights(func(_, _ dag.NodeID, w int64) int64 { return jitter(w) })
	return g, nil
}

// contentKey is an isomorphism invariant: graphs with different keys
// cannot be relabeled copies of each other, so distinct keys prove
// distinct content without running the program's canonical hash.
func contentKey(g *dag.Graph) uint64 {
	ws := make([]int64, g.NumNodes())
	for v := range ws {
		ws[v] = g.Weight(dag.NodeID(v))
	}
	es := make([]int64, 0, g.NumEdges())
	for _, e := range g.Edges() {
		es = append(es, e.Weight)
	}
	slices.Sort(ws)
	slices.Sort(es)
	h := fnv.New64a()
	var b [8]byte
	word := func(x int64) {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	word(int64(len(ws)))
	for _, w := range ws {
		word(w)
	}
	word(-1)
	for _, w := range es {
		word(w)
	}
	return h.Sum64()
}

// uniqueSource yields the content-unique graphs of one seed stream.
// Graph j is variant j mod variants of shape j / variants. Each shape is
// drawn with its own generator; variants after the first redraw every
// node and edge weight within ±10%, which gives new content of the same
// shape and about the same granularity at a fraction of the cost of
// generating a graph.
type uniqueSource struct {
	seed     int64
	stream   int
	small    bool // every other shape is a small B&B-eligible PDG
	variants int
	seen     map[uint64]bool // content keys handed out so far
}

// draw draws stratum s of the mix from rng.
func (u *uniqueSource) draw(rng *rand.Rand, s int) (*dag.Graph, error) {
	switch {
	case u.small && s%2 == 0:
		return smallGraph(rng, s/2)
	case u.small:
		return mixedGraph(rng, s/2)
	}
	return mixedGraph(rng, s)
}

// shape draws shape s and its variants, whether or not their content
// is new.
func (u *uniqueSource) shape(s int) ([]*dag.Graph, error) {
	rng := rand.New(rand.NewSource(streamSeed(u.seed, u.stream, s)))
	g, err := u.draw(rng, s)
	if err != nil {
		return nil, err
	}
	out := []*dag.Graph{g}
	for v := 1; v < u.variants; v++ {
		out = append(out, reweighted(g, rng))
	}
	return out, nil
}

// redraw replaces graph j, whose content repeated an earlier graph's,
// with a fresh draw of its stratum whose content is new.
func (u *uniqueSource) redraw(j int) (*dag.Graph, error) {
	rng := rand.New(rand.NewSource(streamSeed(u.seed, -u.stream, j)))
	for attempt := 0; attempt < 20; attempt++ {
		g, err := u.draw(rng, j/u.variants)
		if err != nil {
			return nil, err
		}
		if k := contentKey(g); !u.seen[k] {
			u.seen[k] = true
			return g, nil
		}
	}
	return nil, fmt.Errorf("stream %d graph %d: no content-unique draw", u.stream, j)
}

// generate returns n graphs of src. Shapes are drawn on `workers`
// goroutines; then, in order, any graph whose content repeats an
// earlier one is redrawn, so the result does not depend on the worker
// count.
func (u *uniqueSource) generate(n int) ([]*dag.Graph, error) {
	shapes := (n + u.variants - 1) / u.variants
	out := make([]*dag.Graph, shapes*u.variants)
	errs := make([]error, shapes)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < shapes; s += workers {
				var gs []*dag.Graph
				gs, errs[s] = u.shape(s)
				copy(out[s*u.variants:], gs)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out = out[:n]
	for j, g := range out {
		if k := contentKey(g); !u.seen[k] {
			u.seen[k] = true
			continue
		}
		var err error
		if out[j], err = u.redraw(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reweighted returns a copy of g with every node and edge weight
// redrawn within ±10% (at least ±1, and at least 1).
func reweighted(g *dag.Graph, rng *rand.Rand) *dag.Graph {
	jitter := func(w int64) int64 {
		d := max(1, w/10)
		return max(1, w-d+rng.Int63n(2*d+1))
	}
	c := g.Clone()
	for v := 0; v < c.NumNodes(); v++ {
		c.SetWeight(dag.NodeID(v), jitter(c.Weight(dag.NodeID(v))))
	}
	c.MapEdgeWeights(func(_, _ dag.NodeID, w int64) int64 { return jitter(w) })
	return c
}

// encodeAll marshals graphs to request bodies on `workers` goroutines.
func encodeAll(graphs []*dag.Graph) ([][]byte, error) {
	out := make([][]byte, len(graphs))
	errs := make([]error, len(graphs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(graphs); j += workers {
				out[j], errs[j] = json.Marshal(graphs[j])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// relabeled returns g with its nodes renumbered by a random
// permutation: the same content under different node ids.
func relabeled(g *dag.Graph, rng *rand.Rand) *dag.Graph {
	n := g.NumNodes()
	perm := rng.Perm(n) // old id -> new id
	inv := make([]int, n)
	for v, p := range perm {
		inv[p] = v
	}
	c := dag.New(g.Name())
	for _, v := range inv {
		c.AddNode(g.Weight(dag.NodeID(v)))
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		c.MustAddEdge(dag.NodeID(perm[e.From]), dag.NodeID(perm[e.To]), e.Weight)
	}
	return c
}

// bodySet is a workload's generated requests: bodies[i] is a request
// body and order lists the body sent by each request slot.
type bodySet struct {
	bodies [][]byte
	// graphs counts the graphs generated to build the bodies.
	graphs int
	// order[k] is the body index request k sends. The closed-loop
	// phase consumes slots from the front, the open-loop phase from
	// openStart on; warm holds warm-up bodies sent before either.
	order     []int
	openStart int
	warm      []int
	// pool is the number of leading bodies that are pool variants.
	pool int
}
